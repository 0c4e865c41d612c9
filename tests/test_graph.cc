// Framework graph layer: dataflow-derived dependencies, the fused-rewrite
// pass over OpEntry patterns, and GraphExecutor scheduling semantics —
// chain graphs must time byte-identically to sequential Session::run calls
// (golden equivalence, same style as test_sim_determinism), diamond graphs
// must be schedule-order independent, independent nodes must overlap, and a
// warm executor must rerun (serial or sharded) without building an operator.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "framework/session.h"
#include "fused/embedding_a2a.h"
#include "fused/gemv_allreduce.h"

namespace fcc::fw {
namespace {

// ---------------------------------------------------------------------------
// Test-local ops: a pure-delay op (no device/fabric contention, so node
// results depend only on start time) and a fusable producer/consumer pair
// declared via the structured `pattern` metadata (the sole rewrite source).
// ---------------------------------------------------------------------------

struct DelayConfig {
  TimeNs fused_ns = 500;
  TimeNs baseline_ns = 2000;
};

class DelayOp final : public fused::FusedOp {
 public:
  DelayOp(shmem::World& world, TimeNs cost, const char* name)
      : FusedOp(world), cost_(cost), name_(name) {}

  const char* name() const override { return name_; }

  sim::Co run() override {
    begin_run(world_.n_pes());
    co_await sim::delay(engine(), cost_);
    finish_run_uniform();
  }

 private:
  TimeNs cost_;
  const char* name_;
};

OpEntry delay_entry(std::string name) {
  OpEntry e;
  e.name = std::move(name);
  e.make = [](shmem::World& world, const OpSpec& spec,
              Backend backend) -> std::unique_ptr<fused::FusedOp> {
    const auto& cfg = spec_config<DelayConfig>(spec);
    return std::make_unique<DelayOp>(
        world, backend == Backend::kFused ? cfg.fused_ns : cfg.baseline_ns,
        "graphtest_delay");
  };
  return e;
}

const OpRegistrar delay_registrar{delay_entry("graphtest::delay")};

// Fused pair registered with the structured pattern.
OpEntry fused_pair_entry() {
  OpEntry e = delay_entry("graphtest::fused_pair");
  e.pattern = {"graphtest::prod", "graphtest::cons"};
  return e;
}

const OpRegistrar fused_pair_registrar{fused_pair_entry()};

fused::EmbeddingA2AConfig small_emb_config() {
  fused::EmbeddingA2AConfig cfg;
  cfg.map.num_pes = kSmokePes;
  cfg.map.tables_per_pe = 4;
  cfg.map.global_batch = 128;
  cfg.map.dim = 64;
  cfg.map.vectors_per_slice = 8;
  cfg.functional = false;
  return cfg;
}

fused::GemvAllReduceConfig small_gemv_config(int m = 2048) {
  fused::GemvAllReduceConfig cfg;
  cfg.m = m;
  cfg.k_global = 2048;
  cfg.functional = false;
  return cfg;
}

// ---------------------------------------------------------------------------
// Graph construction
// ---------------------------------------------------------------------------

TEST(GraphBuild, DataflowDerivesRawWawWarEdges) {
  Graph g;
  auto t = g.tensor("t");
  auto u = g.tensor("u");
  DelayConfig cfg;
  auto w1 = g.add("graphtest::delay", cfg, {}, {t});        // writes t
  auto r1 = g.add("graphtest::delay", cfg, {t}, {u});       // reads t (RAW)
  auto w2 = g.add("graphtest::delay", cfg, {}, {t});        // rewrites t
  EXPECT_EQ(g.node(w1.v).deps, std::vector<int>{});
  EXPECT_EQ(g.node(r1.v).deps, std::vector<int>{w1.v});
  // The overwriter waits for the previous writer (WAW) and reader (WAR).
  EXPECT_EQ(g.node(w2.v).deps, (std::vector<int>{w1.v, r1.v}));
}

TEST(GraphBuild, ExplicitDepsMustPointBackwards) {
  Graph g;
  DelayConfig cfg;
  auto a = g.add("graphtest::delay", cfg, {}, {});
  auto b = g.add("graphtest::delay", cfg, {}, {});
  g.add_dep(b, a);
  EXPECT_EQ(g.node(b.v).deps, std::vector<int>{a.v});
  EXPECT_THROW(g.add_dep(a, b), std::logic_error);  // forward edge = cycle
  EXPECT_THROW(g.add_dep(a, NodeId{99}), std::logic_error);
}

TEST(GraphBuild, UndeclaredTensorThrows) {
  Graph g;
  DelayConfig cfg;
  EXPECT_THROW(g.add("graphtest::delay", cfg, {TensorId{3}}, {}),
               std::logic_error);
}

// ---------------------------------------------------------------------------
// Fused-rewrite pass
// ---------------------------------------------------------------------------

TEST(RewritePass, CollapsesEmbeddingAllToAllPattern) {
  const auto cfg = small_emb_config();
  Graph g;
  auto indices = g.tensor("indices");
  auto pooled = g.tensor("pooled");
  auto exchanged = g.tensor("exchanged");
  g.add("aten::embedding_bag", cfg, {indices}, {pooled});
  g.add("c10d::all_to_all", {pooled}, {exchanged});

  const int n = rewrite_fused(g);
  EXPECT_EQ(n, 1);
  EXPECT_EQ(g.num_live_nodes(), 1);
  ASSERT_TRUE(g.node(0).fused_away);
  const GraphNode& fused_node = g.node(1);
  EXPECT_EQ(fused_node.spec.name, "fcc::embedding_a2a");
  EXPECT_EQ(fused_node.fused_from,
            "aten::embedding_bag + c10d::all_to_all");
  // Reads the producer's input, writes the consumer's output.
  EXPECT_EQ(fused_node.inputs, std::vector<int>{indices.v});
  EXPECT_EQ(fused_node.outputs, std::vector<int>{exchanged.v});
  EXPECT_EQ(fused_node.deps, std::vector<int>{});
}

// Acceptance criterion: the rewritten pattern graph must produce exactly
// the results of dispatching the fused op directly.
TEST(RewritePass, RewrittenGraphEqualsDirectFusedDispatch) {
  const auto cfg = small_emb_config();
  Graph g;
  auto pooled = g.tensor("pooled");
  auto exchanged = g.tensor("exchanged");
  g.add("aten::embedding_bag", cfg, {}, {pooled});
  g.add("c10d::all_to_all", {pooled}, {exchanged});

  Session graph_session(smoke_machine_config());
  const GraphResult gr = graph_session.run(g, Backend::kFused);
  EXPECT_EQ(gr.rewrites, 1);
  ASSERT_EQ(gr.nodes.size(), 1u);
  EXPECT_EQ(gr.nodes[0].op, "fcc::embedding_a2a");

  Session direct_session(smoke_machine_config());
  const auto direct = direct_session.run(
      make_spec("fcc::embedding_a2a", cfg), Backend::kFused);
  EXPECT_EQ(gr.nodes[0].result, direct);
  EXPECT_EQ(gr.makespan(), direct.duration());
}

TEST(RewritePass, StructuredPatternFusesConfigFreeProducer) {
  // graphtest::fused_pair declares its pattern structurally; the producer
  // is config-free, so the merged node takes the consumer's config (the
  // fallback side of the "compute node carries the config" convention).
  DelayConfig cfg;
  cfg.fused_ns = 777;
  Graph g;
  auto t = g.tensor("t");
  auto u = g.tensor("u");
  g.add("graphtest::prod", {}, {t});
  g.add("graphtest::cons", cfg, {t}, {u});

  Session s(smoke_machine_config());
  const GraphResult gr = s.run(g, Backend::kFused);
  EXPECT_EQ(gr.rewrites, 1);
  ASSERT_EQ(gr.nodes.size(), 1u);
  EXPECT_EQ(gr.nodes[0].op, "graphtest::fused_pair");
  EXPECT_EQ(gr.nodes[0].result.duration(), 777);
}

TEST(RewritePass, RespectsOtherConsumers) {
  // pooled is read by a second node: fusing would retime that reader's
  // input, so the pass must leave the pattern alone...
  const auto cfg = small_emb_config();
  DelayConfig dcfg;
  Graph g;
  auto pooled = g.tensor("pooled");
  auto exchanged = g.tensor("exchanged");
  auto side = g.tensor("side");
  g.add("aten::embedding_bag", cfg, {}, {pooled});
  g.add("c10d::all_to_all", {pooled}, {exchanged});
  g.add("graphtest::delay", dcfg, {pooled}, {side});
  EXPECT_EQ(rewrite_fused(g), 0);
  EXPECT_EQ(g.num_live_nodes(), 3);

  // ...and executing the un-lowered pattern graph reports the unknown
  // pattern node together with every registered op.
  Session s(smoke_machine_config());
  try {
    s.run(g, Backend::kFused);
    FAIL() << "expected unknown-op error";
  } catch (const std::logic_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("aten::embedding_bag"), std::string::npos) << msg;
    EXPECT_NE(msg.find("fcc::embedding_a2a"), std::string::npos) << msg;
    EXPECT_NE(msg.find("graphtest::delay"), std::string::npos) << msg;
  }
}

// ---------------------------------------------------------------------------
// Scheduling determinism (golden-trace style)
// ---------------------------------------------------------------------------

/// Runs the three-op chain sequentially through blocking Session::run.
std::vector<fused::OperatorResult> sequential_chain(Backend backend) {
  Session s(smoke_machine_config());
  std::vector<fused::OperatorResult> out;
  out.push_back(s.run(make_spec("fcc::gemv_allreduce", small_gemv_config()),
                      backend));
  out.push_back(s.run(make_spec("fcc::embedding_a2a", small_emb_config()),
                      backend));
  out.push_back(s.run(
      make_spec("fcc::gemv_allreduce", small_gemv_config(/*m=*/1024)),
      backend));
  return out;
}

/// The same three ops as a single-dependency chain Graph.
GraphResult graph_chain(Backend backend) {
  Graph g;
  auto a = g.tensor("a");
  auto b = g.tensor("b");
  auto c = g.tensor("c");
  g.add("fcc::gemv_allreduce", small_gemv_config(), {}, {a});
  g.add("fcc::embedding_a2a", small_emb_config(), {a}, {b});
  g.add("fcc::gemv_allreduce", small_gemv_config(/*m=*/1024), {b}, {c});
  Session s(smoke_machine_config());
  return s.run(g, backend);
}

TEST(GraphDeterminism, ChainMatchesSequentialRunsExactly) {
  for (Backend backend : {Backend::kFused, Backend::kBaseline}) {
    const auto seq = sequential_chain(backend);
    const GraphResult gr = graph_chain(backend);
    ASSERT_EQ(gr.nodes.size(), seq.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
      // Byte-identical OperatorResults: same start/end stamps, same per-PE
      // completion times — graph scheduling added zero timing perturbation.
      EXPECT_EQ(gr.nodes[i].result, seq[i]) << "op " << i;
    }
    // A pure chain has no overlap to exploit: makespan == sum == critical.
    EXPECT_EQ(gr.makespan(), gr.sum_durations());
    EXPECT_EQ(gr.critical_path_ns, gr.sum_durations());
    EXPECT_DOUBLE_EQ(gr.overlap_fraction(), 0.0);
  }
}

TEST(GraphDeterminism, RepeatedGraphRunsAreBitIdentical) {
  const GraphResult a = graph_chain(Backend::kFused);
  const GraphResult b = graph_chain(Backend::kFused);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].result, b.nodes[i].result);
  }
}

/// Diamond over pure-delay ops: A → {B, C} → D, B and C added in either
/// order. Delay ops share no device or fabric state, so per-node results
/// must not depend on the insertion (schedule) order.
GraphResult diamond(bool b_first) {
  DelayConfig a_cfg{.fused_ns = 100, .baseline_ns = 100};
  DelayConfig b_cfg{.fused_ns = 300, .baseline_ns = 300};
  DelayConfig c_cfg{.fused_ns = 500, .baseline_ns = 500};
  DelayConfig d_cfg{.fused_ns = 100, .baseline_ns = 100};
  Graph g;
  auto src = g.tensor("src");
  auto left = g.tensor("left");
  auto right = g.tensor("right");
  auto sink = g.tensor("sink");
  g.add("graphtest::delay", a_cfg, {}, {src}, "A");
  if (b_first) {
    g.add("graphtest::delay", b_cfg, {src}, {left}, "B");
    g.add("graphtest::delay", c_cfg, {src}, {right}, "C");
  } else {
    g.add("graphtest::delay", c_cfg, {src}, {right}, "C");
    g.add("graphtest::delay", b_cfg, {src}, {left}, "B");
  }
  g.add("graphtest::delay", d_cfg, {left, right}, {sink}, "D");
  Session s(smoke_machine_config());
  return s.run(g, Backend::kFused);
}

TEST(GraphDeterminism, DiamondResultsAreScheduleOrderIndependent) {
  const GraphResult bc = diamond(/*b_first=*/true);
  const GraphResult cb = diamond(/*b_first=*/false);
  ASSERT_EQ(bc.nodes.size(), 4u);
  ASSERT_EQ(cb.nodes.size(), 4u);
  for (const auto& node : bc.nodes) {
    // Match by label: node ids differ between the two insertion orders.
    bool found = false;
    for (const auto& other : cb.nodes) {
      if (other.label != node.label) continue;
      EXPECT_EQ(other.result, node.result) << node.label;
      found = true;
    }
    EXPECT_TRUE(found) << node.label;
  }
  // B (300) and C (500) both start when A ends: real inter-op overlap.
  EXPECT_EQ(bc.makespan(), 100 + 500 + 100);
  EXPECT_EQ(bc.critical_path_ns, 100 + 500 + 100);
  EXPECT_EQ(bc.sum_durations(), 100 + 300 + 500 + 100);
  EXPECT_DOUBLE_EQ(bc.overlap_fraction(), 1.0 - 700.0 / 1000.0);
}

TEST(RewritePass, DuplicatePatternDeclarationsThrow) {
  OpRegistry reg;
  OpEntry a = delay_entry("dup::a");
  a.pattern = {"dup::prod", "dup::cons"};
  OpEntry b = delay_entry("dup::b");
  b.pattern = {"dup::prod", "dup::cons"};  // same structured pattern
  reg.register_op(std::move(a));
  reg.register_op(std::move(b));
  Graph g;
  EXPECT_THROW(rewrite_fused(g, reg), std::logic_error);
}

// A mis-typed node config must throw catchably from Session::run — the
// executor builds every operator before spawning driver coroutines, whose
// unhandled_exception would otherwise std::terminate the process.
TEST(GraphExecutorApi, MistypedNodeConfigThrowsCatchably) {
  Graph g;
  auto t = g.tensor("t");
  g.add("fcc::gemv_allreduce", /*config=*/42, {}, {t});
  Session s(smoke_machine_config());
  try {
    s.run(g, Backend::kFused);
    FAIL() << "expected SpecTypeError";
  } catch (const std::bad_any_cast& e) {
    EXPECT_NE(std::string(e.what()).find("fcc::gemv_allreduce"),
              std::string::npos)
        << e.what();
  }
}

TEST(GraphExecutorApi, EmptyGraphRunsToEmptyResult) {
  Graph g;
  Session s(smoke_machine_config());
  const GraphResult gr = s.run(g);
  EXPECT_TRUE(gr.nodes.empty());
  EXPECT_EQ(gr.makespan(), 0);
  EXPECT_DOUBLE_EQ(gr.overlap_fraction(), 0.0);
}

TEST(GraphExecutorApi, IndependentNodesOverlapOnBothBackends) {
  DelayConfig cfg;  // fused 500 / baseline 2000
  Graph g;
  g.add("graphtest::delay", cfg, {}, {}, "x");
  g.add("graphtest::delay", cfg, {}, {}, "y");
  for (Backend backend : {Backend::kFused, Backend::kBaseline}) {
    Session s(smoke_machine_config());
    const GraphResult gr = s.run(g, backend);
    const TimeNs each = backend == Backend::kFused ? 500 : 2000;
    EXPECT_EQ(gr.makespan(), each);          // fully overlapped
    EXPECT_EQ(gr.sum_durations(), 2 * each);
    EXPECT_EQ(gr.critical_path_ns, each);
    EXPECT_DOUBLE_EQ(gr.overlap_fraction(), 0.5);
  }
}

/// `r` with every timestamp moved back by `dt`.
GraphResult shifted(GraphResult r, TimeNs dt) {
  r.start -= dt;
  r.end -= dt;
  for (NodeRunResult& n : r.nodes) {
    n.ready -= dt;
    n.result.start -= dt;
    n.result.end -= dt;
    for (TimeNs& t : n.result.pe_end) t -= dt;
  }
  return r;
}

void expect_same_result(const GraphResult& a, const GraphResult& b) {
  EXPECT_EQ(a.start, b.start);
  EXPECT_EQ(a.end, b.end);
  EXPECT_EQ(a.critical_path_ns, b.critical_path_ns);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].label, b.nodes[i].label);
    EXPECT_EQ(a.nodes[i].ready, b.nodes[i].ready) << a.nodes[i].label;
    EXPECT_EQ(a.nodes[i].result, b.nodes[i].result) << a.nodes[i].label;
  }
}

sim::Task await_graph(sim::Engine&, GraphExecutor& executor) {
  co_await executor.run();
}

// A warm executor builds its operators once, in its constructor: runs
// after the first, blocking or awaited from a process, construct nothing
// and repeat the first run's timeline exactly, shifted to their start.
TEST(GraphExecutorApi, WarmRunsBuildNoOperatorsAndRepeatTheFirstRun) {
  int builds = 0;
  OpRegistry reg;
  for (const char* name : {"fcc::gemv_allreduce", "fcc::embedding_a2a"}) {
    OpEntry entry = OpRegistry::global().at(name);
    entry.make = [&builds, make = entry.make](shmem::World& world,
                                              const OpSpec& spec,
                                              Backend backend) {
      ++builds;
      return make(world, spec, backend);
    };
    reg.register_op(std::move(entry));
  }
  // gemv -> embedding, with a second gemv overlapping both.
  Graph g;
  auto a = g.tensor("a");
  g.add("fcc::gemv_allreduce", small_gemv_config(), {}, {a}, "gemv");
  g.add("fcc::embedding_a2a", small_emb_config(), {a}, {g.tensor("b")},
        "emb");
  g.add("fcc::gemv_allreduce", small_gemv_config(/*m=*/1024), {},
        {g.tensor("c")}, "side");

  // Serial, and four single-GPU nodes on two engine shards.
  gpu::Machine::Config sharded = smoke_machine_config();
  sharded.num_nodes = kSmokePes;
  sharded.gpus_per_node = 1;
  sharded.num_shards = 2;
  for (const auto& [mc, backend] :
       {std::pair{smoke_machine_config(), Backend::kFused},
        std::pair{smoke_machine_config(), Backend::kBaseline},
        std::pair{sharded, Backend::kFused},
        std::pair{sharded, Backend::kBaseline}}) {
    SCOPED_TRACE(std::to_string(mc.num_shards) + " shard(s), " +
                 (backend == Backend::kFused ? "fused" : "baseline"));
    builds = 0;
    gpu::Machine machine(mc);
    shmem::World world(machine);
    GraphExecutor executor(
        world, g,
        std::vector<Backend>(static_cast<std::size_t>(g.num_nodes()), backend),
        reg);
    EXPECT_EQ(builds, 3);
    const GraphResult first = executor.run_to_completion();
    const GraphResult second = executor.run_to_completion();
    await_graph(machine.engine(), executor);
    machine.run_all();
    EXPECT_EQ(machine.sharded().live_tasks(), 0);
    const GraphResult third = executor.result();
    EXPECT_EQ(builds, 3) << "a warm run constructed an operator";
    EXPECT_GT(first.overlap_fraction(), 0.0);
    ASSERT_GE(second.start, first.end);
    ASSERT_GE(third.start, second.end);
    expect_same_result(shifted(second, second.start - first.start), first);
    expect_same_result(shifted(third, third.start - first.start), first);
  }
}

}  // namespace
}  // namespace fcc::fw
