// The planning subsystem: the fixed pass order, the LRU PlanCache,
// fingerprint exactness and collision-freedom, calibration honesty at the
// measured moe_dispatch T=512 crossover, planner determinism, warm-cache
// replay, select-ccl-algo picking the fastest simulated AllReduce,
// Session::run(Graph) bypassing the planner, and the actionable
// planning error paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "framework/fingerprint.h"
#include "framework/session.h"
#include "fused/gemm_a2a.h"
#include "fused/gemv_allreduce.h"
#include "fused/moe_dispatch.h"
#include "plan/calibration.h"
#include "plan/cost_scorer.h"
#include "plan/plan_cache.h"
#include "plan/planner.h"

namespace fcc::plan {
namespace {

gpu::Machine::Config smoke_machine() {
  gpu::Machine::Config mc;
  mc.num_nodes = 1;
  mc.gpus_per_node = 4;
  return mc;
}

fw::Graph gemv_graph(int m, int k) {
  fused::GemvAllReduceConfig cfg;
  cfg.m = m;
  cfg.k_global = k;
  cfg.functional = false;
  fw::Graph g;
  auto out = g.tensor("y");
  g.add(fw::make_spec("fcc::gemv_allreduce", cfg), {}, {out}, "gemv");
  return g;
}

fw::Graph moe_graph(int tokens, int block = ops::kGemmBlockM) {
  fused::MoeDispatchConfig cfg;
  cfg.tokens_per_pe = tokens;
  cfg.d_model = 1024;
  cfg.d_out = 1024;
  cfg.block_m = block;
  cfg.block_n = block;
  cfg.hot_expert_factor = 4.0;
  cfg.functional = false;
  fw::Graph g;
  auto out = g.tensor("routed");
  g.add(fw::make_spec("fcc::moe_dispatch", cfg), {}, {out}, "moe");
  return g;
}

// ---------------------------------------------------------------------------
// PlanCache
// ---------------------------------------------------------------------------

PlanCache::Entry entry_with_marker(int marker) {
  PlanCache::Entry e;
  e.plan.backends.assign(static_cast<std::size_t>(marker),
                         fw::Backend::kFused);
  return e;
}

TEST(PlanCacheTest, LruEvictionAtCapacity) {
  PlanCache cache(2);
  cache.insert("a", entry_with_marker(1));
  cache.insert("b", entry_with_marker(2));
  ASSERT_NE(cache.find("a"), nullptr);  // bumps "a" most-recent
  cache.insert("c", entry_with_marker(3));  // evicts "b" (least recent)
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.find("b"), nullptr);
  const PlanCache::Entry* a = cache.find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->plan.backends.size(), 1u);
  ASSERT_NE(cache.find("c"), nullptr);
}

TEST(PlanCacheTest, CountersTrackHitsMissesUncacheable) {
  PlanCache cache(4);
  EXPECT_EQ(cache.find("missing"), nullptr);
  cache.insert("k", entry_with_marker(1));
  EXPECT_NE(cache.find("k"), nullptr);
  cache.note_uncacheable();
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().uncacheable, 1);
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.5);
}

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

TEST(Fingerprint, SameShapeSameKeyDifferentConfigDifferentKey) {
  const auto a = fw::graph_fingerprint(gemv_graph(512, 1024));
  const auto b = fw::graph_fingerprint(gemv_graph(512, 1024));
  const auto c = fw::graph_fingerprint(gemv_graph(1024, 1024));
  EXPECT_TRUE(a.exact);
  EXPECT_EQ(a.key, b.key);
  // Same op, same structure, different problem size: the shape_key must
  // separate them (this is what makes cached plans safe to replay).
  EXPECT_NE(a.key, c.key);
}

TEST(Fingerprint, UnregisteredOpMarksInexact) {
  fw::Graph g;
  auto t = g.tensor("t");
  g.add("nowhere::op", {}, {t});
  const auto fp = fw::graph_fingerprint(g);
  EXPECT_FALSE(fp.exact);
  EXPECT_NE(fp.key.find("nowhere::op"), std::string::npos);
}

TEST(Fingerprint, TopologyKeySeparatesGeometryAndKind) {
  const auto base = fw::topology_fingerprint(smoke_machine());
  gpu::Machine::Config two_nodes = smoke_machine();
  two_nodes.num_nodes = 2;
  gpu::Machine::Config switched = smoke_machine();
  switched.topology.kind = hw::TopologySpec::Kind::kSwitchedNode;
  EXPECT_EQ(base, fw::topology_fingerprint(smoke_machine()));
  EXPECT_NE(base, fw::topology_fingerprint(two_nodes));
  EXPECT_NE(base, fw::topology_fingerprint(switched));

  // Driver knobs (sharding, tracing) are not plan-relevant.
  gpu::Machine::Config traced = smoke_machine();
  traced.collect_trace = true;
  EXPECT_EQ(base, fw::topology_fingerprint(traced));
}

TEST(Fingerprint, UncacheableGraphIsPlannedButNotCached) {
  fw::Graph g;
  auto t = g.tensor("t");
  fused::GemvAllReduceConfig cfg;
  cfg.m = 512;
  cfg.k_global = 1024;
  cfg.functional = false;
  g.add(fw::make_spec("fcc::gemv_allreduce", cfg), {}, {t}, "gemv");
  // Register nothing extra — instead plan a graph whose fingerprint is
  // exact, then one that is not, against the same cache.
  PlanCache cache(4);
  PlanOptions options;
  options.cache = &cache;
  Planner planner;
  (void)planner.plan(g, smoke_machine(), options);
  EXPECT_EQ(cache.size(), 1u);

  fw::Graph inexact = g;
  auto u = inexact.tensor("u");
  inexact.add("aten::embedding_bag", {t}, {u});  // pattern op: no shape_key
  // An unfusable pattern node leaves the graph un-dispatchable, so only
  // fingerprint/cache behaviour is checked here, via the planner's report.
  try {
    const Planned p = planner.plan(inexact, smoke_machine(), options);
    EXPECT_FALSE(p.report.cacheable);
  } catch (const PlanError&) {
    // Post-pipeline validation rejects the stray pattern node — fine; the
    // uncacheable lookup was still counted before validation ran.
  }
  EXPECT_EQ(cache.stats().uncacheable, 1);
  EXPECT_EQ(cache.size(), 1u);
}

// ---------------------------------------------------------------------------
// Calibration honesty — both sides of the measured T=512 crossover
// ---------------------------------------------------------------------------

TEST(Calibration, BuiltinTableCoversTheCrossoverOps) {
  const CalibrationTable& table = builtin_calibration();
  ASSERT_GT(table.size(), 0) << "builtin calibration table is empty — "
                                "regenerate with bench_plan_quality "
                                "--print-calibration";
  bool has_crossover_anchor = false;
  for (const CalibrationAnchor& a : table.anchors()) {
    if (a.op == "fcc::moe_dispatch" &&
        a.label.find("T=512") != std::string::npos) {
      has_crossover_anchor = true;
      // The recorded measurement must itself show the crossover: fused
      // slower than baseline at this point.
      EXPECT_GT(a.measured_fused_ns, a.measured_baseline_ns) << a.label;
    }
  }
  EXPECT_TRUE(has_crossover_anchor);
}

TEST(Calibration, PlannerPicksTheMeasuredWinnerOnBothSidesOfCrossover) {
  // Replays the recorded moe_dispatch_skew.csv crossover: at T=512 (skew
  // 4x, 1x4 fully connected) the fused path measured *slower* — the
  // planner must reject the fused rewrite; at T=1024 it measured faster —
  // the planner must keep it. Pure host planning, no simulation.
  Planner planner;
  const Planned at_512 = planner.plan(moe_graph(512), smoke_machine());
  ASSERT_EQ(at_512.plan.backends.size(), 1u);
  EXPECT_EQ(at_512.plan.backends[0], fw::Backend::kBaseline)
      << at_512.report.to_string();

  const Planned at_1024 = planner.plan(moe_graph(1024), smoke_machine());
  ASSERT_EQ(at_1024.plan.backends.size(), 1u);
  EXPECT_EQ(at_1024.plan.backends[0], fw::Backend::kFused)
      << at_1024.report.to_string();

  // The report must carry the predicted costs that justify each call.
  bool found = false;
  for (const PlanDecision& d : at_512.report.decisions) {
    if (d.pass != "score-backends") continue;
    found = true;
    EXPECT_TRUE(d.calibrated);
    EXPECT_GT(d.predicted_fused_ns, d.predicted_baseline_ns);
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Planner determinism and warm-cache replay
// ---------------------------------------------------------------------------

TEST(PlannerDeterminism, RepeatedPlansAreIdentical) {
  Planner planner;
  const Planned a = planner.plan(moe_graph(512), smoke_machine());
  const Planned b = planner.plan(moe_graph(512), smoke_machine());
  EXPECT_EQ(a.plan.backends, b.plan.backends);
  ASSERT_EQ(a.report.decisions.size(), b.report.decisions.size());
  for (std::size_t i = 0; i < a.report.decisions.size(); ++i) {
    EXPECT_EQ(a.report.decisions[i].choice, b.report.decisions[i].choice);
    EXPECT_EQ(a.report.decisions[i].predicted_fused_ns,
              b.report.decisions[i].predicted_fused_ns);
    EXPECT_EQ(a.report.decisions[i].predicted_baseline_ns,
              b.report.decisions[i].predicted_baseline_ns);
  }
  EXPECT_EQ(a.report.graph_key, b.report.graph_key);
}

TEST(PlannerDeterminism, WarmCacheHitReplaysByteIdentically) {
  PlanCache cache(8);
  PlanOptions options;
  options.cache = &cache;

  fw::Session cold_session(smoke_machine());
  const auto cold = cold_session.run_planned(gemv_graph(512, 1024), options);
  EXPECT_FALSE(cold.planned.report.cache_hit);
  // A cold plan runs the three passes, in pipeline order.
  std::vector<std::string> pass_names;
  for (const PassRun& run : cold.planned.report.passes) {
    pass_names.push_back(run.name);
  }
  EXPECT_EQ(pass_names, (std::vector<std::string>{
                            "fuse-patterns", "score-backends",
                            "select-ccl-algo"}));

  fw::Session warm_session(smoke_machine());
  const auto warm = warm_session.run_planned(gemv_graph(512, 1024), options);
  // Warm hit: zero passes re-run, identical decisions, and the planned
  // execution's simulated records are byte-identical to the cold run.
  EXPECT_TRUE(warm.planned.report.cache_hit);
  EXPECT_TRUE(warm.planned.report.passes.empty());
  EXPECT_EQ(warm.planned.plan.backends, cold.planned.plan.backends);
  EXPECT_EQ(warm.result.makespan(), cold.result.makespan());
  ASSERT_EQ(warm.result.nodes.size(), cold.result.nodes.size());
  for (std::size_t i = 0; i < warm.result.nodes.size(); ++i) {
    EXPECT_EQ(warm.result.nodes[i].result, cold.result.nodes[i].result);
  }
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);
}

TEST(PlannerDeterminism, CacheKeepsTileSizesApart) {
  // The scorer prices a tile grid, so two tile sizes of one problem can
  // pick different backends; a shared cache must not replay one for the
  // other.
  Planner planner;
  const Planned cold_64 = planner.plan(moe_graph(1024, 64), smoke_machine());
  const Planned cold_8 = planner.plan(moe_graph(1024, 8), smoke_machine());
  ASSERT_EQ(cold_64.plan.backends,
            (std::vector<fw::Backend>{fw::Backend::kFused}));
  ASSERT_EQ(cold_8.plan.backends,
            (std::vector<fw::Backend>{fw::Backend::kBaseline}));

  PlanCache cache(8);
  PlanOptions options;
  options.cache = &cache;
  (void)planner.plan(moe_graph(1024, 64), smoke_machine(), options);
  const Planned warm_8 =
      planner.plan(moe_graph(1024, 8), smoke_machine(), options);
  EXPECT_FALSE(warm_8.report.cache_hit);
  EXPECT_EQ(warm_8.plan.backends, cold_8.plan.backends);

  // The GEMM+A2A key separates tile sizes too.
  const auto gemm_key = [](int block) {
    fused::GemmA2AConfig cfg;
    cfg.rows_per_origin = 64;
    cfg.block_m = block;
    cfg.block_n = block;
    cfg.functional = false;
    fw::Graph g;
    auto out = g.tensor("out");
    g.add(fw::make_spec("fcc::gemm_a2a", cfg), {}, {out}, "gemm");
    return fw::graph_fingerprint(g).key;
  };
  EXPECT_NE(gemm_key(64), gemm_key(16));
}

TEST(PlanReportText, ListsEveryPassAndDecisionOfATwoNodeGraph) {
  fw::Graph g = gemv_graph(512, 1024);
  fused::MoeDispatchConfig moe;
  moe.tokens_per_pe = 512;
  moe.hot_expert_factor = 4.0;
  auto routed = g.tensor("routed");
  g.add(fw::make_spec("fcc::moe_dispatch", moe), {}, {routed}, "moe");

  // Two nodes put the GEMV on the baseline, so select-ccl-algo reports too.
  gpu::Machine::Config two_nodes = smoke_machine();
  two_nodes.num_nodes = 2;
  const Planned planned = Planner().plan(g, two_nodes);
  const PlanReport& report = planned.report;
  const std::string text = report.to_string();
  EXPECT_EQ(text.rfind("plan: planned\n", 0), 0u) << text;
  for (const PassRun& run : report.passes) {
    EXPECT_NE(text.find("  pass " + run.name + ": "), std::string::npos)
        << run.name << "\n" << text;
  }
  // Both nodes are scored, so each has at least one decision.
  std::vector<std::string> labels;
  for (const PlanDecision& d : report.decisions) labels.push_back(d.label);
  EXPECT_NE(std::find(labels.begin(), labels.end(), "gemv"), labels.end());
  EXPECT_NE(std::find(labels.begin(), labels.end(), "moe"), labels.end());
  int algo_lines = 0;
  for (const PlanDecision& d : report.decisions) {
    // select-ccl-algo compares two simulated AllReduce algorithms, the
    // other passes a predicted fused and baseline cost.
    std::ostringstream costs;
    if (d.pass == "select-ccl-algo") {
      ++algo_lines;
      costs << d.choice << " " << d.predicted_fused_ns << " ns vs "
            << d.incumbent << " " << d.predicted_baseline_ns
            << " ns [simulated]; ";
    } else {
      costs << "predicted fused ";
    }
    const std::string line = "  [" + d.pass + "] node " +
                             std::to_string(d.node) + " '" + d.label +
                             "' (" + d.op + "): " +
                             (d.accepted ? "applied " : "kept ") + d.choice +
                             " — " + costs.str();
    EXPECT_NE(text.find(line), std::string::npos) << line << "\n" << text;
    EXPECT_NE(text.find("; " + d.why + "\n"), std::string::npos) << text;
  }
  EXPECT_EQ(algo_lines, 1) << text;
}

// ---------------------------------------------------------------------------
// select-ccl-algo plans the fastest baseline AllReduce
// ---------------------------------------------------------------------------

struct NamedMachine {
  const char* name;
  gpu::Machine::Config config;
};

std::vector<NamedMachine> algo_machines() {
  using K = hw::TopologySpec::Kind;
  const auto make = [](int nodes, int gpus, K kind) {
    gpu::Machine::Config mc;
    mc.num_nodes = nodes;
    mc.gpus_per_node = gpus;
    mc.topology.kind = kind;
    mc.topology.torus.dim_x = 2;
    mc.topology.torus.dim_y = 2;
    return mc;
  };
  return {{"fc1x4", make(1, 4, K::kFullyConnected)},
          {"sw1x4", make(1, 4, K::kSwitchedNode)},
          {"fc2x4", make(2, 4, K::kFullyConnected)},
          {"sw2x4", make(2, 4, K::kSwitchedNode)},
          {"mr2x4", make(2, 4, K::kMultiRail)},
          {"torus2x2", make(4, 1, K::kTorus2D)}};
}

constexpr int kAlgoSizes[] = {512, 1024, 8192, 16384};

fw::OpSpec gemv_spec(const gpu::Machine::Config& mc, int m,
                     ccl::AllReduceAlgo algo) {
  fused::GemvAllReduceConfig cfg;
  cfg.m = m;
  cfg.k_global = 256 * mc.num_nodes * mc.gpus_per_node;
  cfg.functional = false;
  cfg.allreduce_algo = algo;
  return fw::make_spec("fcc::gemv_allreduce", cfg);
}

/// The algorithms a span of `mc`'s PEs can run.
std::vector<ccl::AllReduceAlgo> eligible_algos(const gpu::Machine::Config& mc) {
  std::vector<ccl::AllReduceAlgo> algos{ccl::AllReduceAlgo::kTwoPhaseDirect,
                                        ccl::AllReduceAlgo::kRing};
  if (mc.num_nodes > 1 && mc.gpus_per_node > 1) {
    algos.push_back(ccl::AllReduceAlgo::kHierarchical);
  }
  return algos;
}

TimeNs baseline_makespan(const gpu::Machine::Config& mc, int m,
                         ccl::AllReduceAlgo algo) {
  fw::Session session(mc);
  return session.run(gemv_spec(mc, m, algo), fw::Backend::kBaseline)
      .duration();
}

ccl::AllReduceAlgo spec_algo(const fw::OpSpec& spec) {
  return fw::spec_config<fused::GemvAllReduceConfig>(spec).allreduce_algo;
}

// On every machine and size, the algorithm select-ccl-algo picks for a
// baseline GEMV+AllReduce runs no slower than any other eligible one —
// including fc2x4 at serve's dlrm shape (M=1024), where the flat default
// loses to the hierarchical schedule.
TEST(SelectCclAlgo, PlansTheFastestEligibleBaselineAlgorithm) {
  for (const NamedMachine& machine : algo_machines()) {
    CostEnv env;
    env.machine = machine.config;
    for (const int m : kAlgoSizes) {
      SCOPED_TRACE(std::string(machine.name) + " M=" + std::to_string(m));
      const fw::OpSpec spec =
          gemv_spec(machine.config, m, ccl::AllReduceAlgo::kTwoPhaseDirect);
      const std::optional<AlgoPick> pick = pick_allreduce_algo(spec, env);
      ASSERT_TRUE(pick.has_value());
      EXPECT_EQ(pick->incumbent, ccl::AllReduceAlgo::kTwoPhaseDirect);

      // Where the planner puts the node on the baseline, it plans the pick.
      fw::Graph g;
      auto out = g.tensor("y");
      g.add(spec, {}, {out}, "gemv");
      const Planned planned = Planner().plan(g, machine.config);
      if (planned.backends().at(0) == fw::Backend::kBaseline) {
        EXPECT_EQ(spec_algo(planned.graph.node(0).spec), pick->chosen)
            << planned.report.to_string();
      }

      const TimeNs chosen = baseline_makespan(machine.config, m, pick->chosen);
      for (const ccl::AllReduceAlgo algo : eligible_algos(machine.config)) {
        EXPECT_LE(chosen, baseline_makespan(machine.config, m, algo))
            << "planned " << allreduce_algo_name(pick->chosen) << " vs "
            << allreduce_algo_name(algo);
      }
    }
  }
}

// kAuto prices as the fastest algorithm, which is the one it runs: the tie
// keeps kAuto.
TEST(SelectCclAlgo, ATieKeepsTheIncumbent) {
  for (const NamedMachine& machine : algo_machines()) {
    CostEnv env;
    env.machine = machine.config;
    for (const int m : kAlgoSizes) {
      SCOPED_TRACE(std::string(machine.name) + " M=" + std::to_string(m));
      const fw::OpSpec spec =
          gemv_spec(machine.config, m, ccl::AllReduceAlgo::kAuto);
      const std::optional<AlgoPick> pick = pick_allreduce_algo(spec, env);
      ASSERT_TRUE(pick.has_value());
      EXPECT_EQ(pick->chosen, ccl::AllReduceAlgo::kAuto);
      // A tie: some eligible candidate prices exactly as kAuto.
      const std::vector<ccl::AllReduceAlgo> algos =
          eligible_algos(machine.config);
      const auto prices = ccl::Communicator::price_all_reduce(
          machine.config, m, algos);
      EXPECT_EQ(pick->incumbent_ns,
                static_cast<double>(**std::min_element(prices.begin(),
                                                       prices.end())));
      gpu::Machine live(machine.config);
      ccl::Communicator comm(live, fused::all_pes(live));
      const ccl::AllReduceAlgo runs[] = {comm.select_allreduce(m)};
      EXPECT_EQ(pick->incumbent_ns,
                static_cast<double>(*ccl::Communicator::price_all_reduce(
                    machine.config, m, runs)[0]));
    }
  }
  // Through the planner: fc2x4 plans the GEMV on the baseline and keeps
  // kAuto, recording no override.
  const gpu::Machine::Config fc2x4 = algo_machines()[2].config;
  fw::Graph g;
  auto out = g.tensor("y");
  g.add(gemv_spec(fc2x4, 1024, ccl::AllReduceAlgo::kAuto), {}, {out}, "gemv");
  const Planned planned = Planner().plan(g, fc2x4);
  ASSERT_EQ(planned.backends().at(0), fw::Backend::kBaseline);
  EXPECT_EQ(spec_algo(planned.graph.node(0).spec), ccl::AllReduceAlgo::kAuto);
  EXPECT_TRUE(planned.plan.allreduce_algos.empty());
}

// ---------------------------------------------------------------------------
// Session::run(Graph) never plans
// ---------------------------------------------------------------------------

// A node the planner moves onto the baseline still runs on the backend the
// caller asked for.
TEST(SessionRunGraph, KeepsEveryNodeOnTheRequestedBackend) {
  const fw::Graph g = moe_graph(512);
  fw::Session planned_session(smoke_machine());
  const auto planned = planned_session.run_planned(g);
  ASSERT_EQ(planned.planned.backends().at(0), fw::Backend::kBaseline);

  fw::Session graph_session(smoke_machine());
  const fw::GraphResult gr = graph_session.run(g, fw::Backend::kFused);
  fw::Session op_session(smoke_machine());
  const fused::OperatorResult fused_op =
      op_session.run(g.node(0).spec, fw::Backend::kFused);
  ASSERT_EQ(gr.nodes.size(), 1u);
  EXPECT_EQ(gr.nodes[0].result.duration(), fused_op.duration());
  EXPECT_NE(gr.nodes[0].result.duration(),
            planned.result.nodes.at(0).result.duration());
}

// ---------------------------------------------------------------------------
// Error paths
// ---------------------------------------------------------------------------

TEST(PlanErrors, UnknownOpSurfacesActionablePlanError) {
  fw::Graph g;
  auto t = g.tensor("t");
  g.add("nowhere::op", {}, {t}, "mystery");
  Planner planner;
  try {
    (void)planner.plan(g, smoke_machine());
    FAIL() << "expected PlanError";
  } catch (const PlanError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("mystery"), std::string::npos) << msg;
    EXPECT_NE(msg.find("nowhere::op"), std::string::npos) << msg;
    // The registry's full op list rides along, so the fix is obvious.
    EXPECT_NE(msg.find("fcc::gemv_allreduce"), std::string::npos) << msg;
  }
}

TEST(PlanErrors, MistypedSpecSurfacesSpecTypeErrorWithNodeIdentity) {
  fw::Graph g;
  auto t = g.tensor("t");
  g.add("fcc::gemv_allreduce", /*config=*/42, {}, {t}, "bad-config");
  Planner planner;
  try {
    (void)planner.plan(g, smoke_machine());
    FAIL() << "expected SpecTypeError";
  } catch (const fw::SpecTypeError& e) {
    // The fingerprint's shape_key hook trips first and rethrows with the
    // node's identity; the type stays a std::bad_any_cast so existing
    // single-op dispatch guards keep working.
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bad-config"), std::string::npos) << msg;
    EXPECT_NE(msg.find("fcc::gemv_allreduce"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace fcc::plan
