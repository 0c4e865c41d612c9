// Shard-local fused runtime goldens: the full operator / graph / serving
// stack on the sharded engine must be *byte-identical* to the serial
// engine.
//
// Four layers:
//
//   1. Operator goldens — every registered operator (all four built-ins),
//      both backends, run via its smoke spec on a fully-connected fabric
//      and a 2x2 torus at shard counts {1, 2, 4}; the whole
//      OperatorResult (start, end, per-PE completions) must match the
//      serial run exactly, as must the merged execution trace. The
//      flagship's per-PE embedding shape on an 8x2 torus is pinned to a
//      recorded span, per-PE completions, event and PUT counts.
//   2. fw::Graph — a diamond of real registered ops executed on a sharded
//      Session reproduces the serial node results and makespan, as does a
//      fan-out whose four fused ops are first spawned inside the threaded
//      run.
//   3. serve::Simulator — a warm sharded simulator replays a trace with
//      records identical to the serial machine's, twice (warm re-run
//      stability under sharding).
//   4. Capability check — a sharded machine whose kernel-launch latency is
//      below the fabric's conservative lookahead cannot host fused ops and
//      must say so actionably, catchably, wherever the operators are built:
//      serve::Simulator, a Session graph or single op, the DLRM model.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dlrm/model.h"
#include "framework/graph.h"
#include "framework/op_registry.h"
#include "framework/session.h"
#include "fused/embedding_a2a.h"
#include "fused/result.h"
#include "gpu/machine.h"
#include "serve/arrivals.h"
#include "serve/catalog.h"
#include "serve/simulator.h"
#include "shmem/world.h"

namespace fcc {
namespace {

// Four single-GPU nodes: every smoke spec targets 4 PEs, and node-aligned
// sharding can then split them 1/2/4 ways.
gpu::Machine::Config fc_config(int shards) {
  gpu::Machine::Config cfg;
  cfg.num_nodes = 4;
  cfg.gpus_per_node = 1;
  cfg.num_shards = shards;
  return cfg;
}

gpu::Machine::Config torus_config(int shards) {
  gpu::Machine::Config cfg;
  cfg.num_nodes = 4;
  cfg.gpus_per_node = 1;
  cfg.topology.kind = hw::TopologySpec::Kind::kTorus2D;
  cfg.topology.torus.dim_x = 2;
  cfg.topology.torus.dim_y = 2;
  cfg.num_shards = shards;
  return cfg;
}

/// Ops with smoke specs — the whole registered catalog (>= the four
/// built-ins), runnable timing-only on any 4-PE machine.
std::vector<std::string> smoke_ops() {
  const fw::OpRegistry& reg = fw::OpRegistry::global();
  std::vector<std::string> ops;
  for (const std::string& name : reg.names()) {
    if (reg.at(name).smoke_spec != nullptr) ops.push_back(name);
  }
  return ops;
}

fused::OperatorResult run_op(const gpu::Machine::Config& mc,
                             const std::string& op, fw::Backend backend) {
  gpu::Machine machine(mc);
  shmem::World world(machine);
  const fw::OpEntry& entry = fw::OpRegistry::global().at(op);
  auto instance = entry.make(world, entry.smoke_spec(), backend);
  const auto res = instance->run_to_completion();
  EXPECT_EQ(machine.sharded().live_tasks(), 0) << op;
  return res;
}

// ---------------------------------------------------------------------------
// 1. Operator goldens: serial == sharded for every op, backend, fabric
// ---------------------------------------------------------------------------

TEST(FusedSharded, EveryOperatorMatchesSerialOnFullyConnected) {
  for (const std::string& op : smoke_ops()) {
    for (const fw::Backend backend :
         {fw::Backend::kFused, fw::Backend::kBaseline}) {
      SCOPED_TRACE(op + (backend == fw::Backend::kFused ? "/fused"
                                                        : "/baseline"));
      const auto serial = run_op(fc_config(1), op, backend);
      EXPECT_GT(serial.duration(), 0);
      for (const int shards : {2, 4}) {
        const auto sharded = run_op(fc_config(shards), op, backend);
        EXPECT_EQ(serial, sharded) << "shards=" << shards;
      }
    }
  }
}

TEST(FusedSharded, EveryOperatorMatchesSerialOnTorus) {
  for (const std::string& op : smoke_ops()) {
    for (const fw::Backend backend :
         {fw::Backend::kFused, fw::Backend::kBaseline}) {
      SCOPED_TRACE(op + (backend == fw::Backend::kFused ? "/fused"
                                                        : "/baseline"));
      const auto serial = run_op(torus_config(1), op, backend);
      EXPECT_GT(serial.duration(), 0);
      for (const int shards : {2, 4}) {
        const auto sharded = run_op(torus_config(shards), op, backend);
        EXPECT_EQ(serial, sharded) << "shards=" << shards;
      }
    }
  }
}

/// The merged trace — every kernel-WG span and PUT instant in canonical
/// order — is the finest-grained observable surface; byte-compare it, not
/// just the endpoint times.
std::string traced_embedding_run(const gpu::Machine::Config& base,
                                 int shards) {
  gpu::Machine::Config mc = base;
  mc.num_shards = shards;
  mc.collect_trace = true;
  gpu::Machine machine(mc);
  shmem::World world(machine);

  fused::EmbeddingA2AConfig cfg;
  cfg.map.num_pes = machine.num_pes();
  cfg.map.tables_per_pe = 4;
  cfg.map.global_batch = 128;
  cfg.map.dim = 64;
  cfg.map.vectors_per_slice = 8;
  cfg.functional = false;

  fused::FusedEmbeddingAllToAll op(world, cfg, nullptr);
  op.run_to_completion();
  std::ostringstream json;
  machine.merged_trace().write_chrome_json(json);
  return json.str();
}

TEST(FusedSharded, MergedTraceMatchesSerialByteForByte) {
  for (const auto& [label, base] :
       {std::pair{"fc", fc_config(1)}, std::pair{"torus", torus_config(1)}}) {
    SCOPED_TRACE(label);
    const std::string serial = traced_embedding_run(base, 1);
    EXPECT_FALSE(serial.empty());
    for (const int shards : {2, 4}) {
      EXPECT_EQ(serial, traced_embedding_run(base, shards))
          << "shards=" << shards;
    }
  }
}

/// The timing-only fused embedding on a 4x4 torus (one GPU per node) at
/// `shards` shards; `inspect`, if given, sees the machine after the run.
fused::OperatorResult run_torus16_embedding(
    int shards, const std::function<void(gpu::Machine&)>& inspect = {}) {
  gpu::Machine::Config mc;
  mc.num_nodes = 16;
  mc.gpus_per_node = 1;
  mc.topology.kind = hw::TopologySpec::Kind::kTorus2D;
  mc.topology.torus.dim_x = 4;
  mc.topology.torus.dim_y = 4;
  mc.num_shards = shards;
  gpu::Machine machine(mc);
  shmem::World world(machine);
  fused::EmbeddingA2AConfig cfg;
  cfg.map.num_pes = machine.num_pes();
  cfg.map.tables_per_pe = 4;
  cfg.map.global_batch = 16 * machine.num_pes();
  cfg.map.dim = 64;
  cfg.map.vectors_per_slice = 8;
  cfg.functional = false;
  fused::FusedEmbeddingAllToAll op(world, cfg, nullptr);
  const fused::OperatorResult res = op.run_to_completion();
  if (inspect) inspect(machine);
  return res;
}

// Regression: on a 4x4 torus at 4 shards the node->shard map is 2x2 tiles —
// NOT contiguous in PE order — and several PEs issue inter-node PUTs at the
// same timestamp. The deferred-reservation replay must order those ties by
// source PE, not by source shard; the shard-id tie-break silently shifted
// late-PE completion times on exactly this shape.
TEST(FusedSharded, NonContiguousTorusTilingMatchesSerial) {
  const auto serial = run_torus16_embedding(1);
  EXPECT_GT(serial.duration(), 0);
  for (const int shards : {2, 4}) {
    EXPECT_EQ(serial, run_torus16_embedding(shards)) << "shards=" << shards;
  }
}

// Every flag PUT — same-shard, through the mailbox and through the deferred
// torus replay — delivers as a compact engine event, so no engine's
// callback-node slab holds more than one spawn callback per home PE.
TEST(FusedSharded, TorusEmbeddingFlagPutsTakeNoCallbackNode) {
  for (const int shards : {1, 4}) {
    run_torus16_embedding(shards, [shards](gpu::Machine& machine) {
      for (int s = 0; s < shards; ++s) {
        std::size_t home_pes = 0;
        for (PeId pe = 0; pe < machine.num_pes(); ++pe) {
          if (machine.shard_of(pe) == s) ++home_pes;
        }
        EXPECT_LE(machine.sharded().shard(s).slab_nodes(), home_pes)
            << "shards=" << shards << " shard " << s;
      }
    });
  }
}

/// Everything a golden pins about one timing-only embedding run.
struct EmbeddingGolden {
  TimeNs span = 0;
  std::vector<TimeNs> pe_end;
  std::size_t events = 0;
  std::int64_t puts = 0;

  bool operator==(const EmbeddingGolden&) const = default;
};

std::ostream& operator<<(std::ostream& os, const EmbeddingGolden& g) {
  os << "span=" << g.span << " events=" << g.events << " puts=" << g.puts
     << " pe_end={";
  for (const TimeNs t : g.pe_end) os << t << ",";
  return os << "}";
}

/// The Fig. 15 flagship's per-PE shape (8 tables, 64 samples, dim 256, 32
/// vectors per slice), timing-only, on an 8x2 torus with one GPU per node.
EmbeddingGolden run_torus8x2_embedding(int shards) {
  gpu::Machine::Config mc;
  mc.num_nodes = 16;
  mc.gpus_per_node = 1;
  mc.topology.kind = hw::TopologySpec::Kind::kTorus2D;
  mc.topology.torus.dim_x = 8;
  mc.topology.torus.dim_y = 2;
  mc.num_shards = shards;
  gpu::Machine machine(mc);
  shmem::World world(machine);
  fused::EmbeddingA2AConfig cfg;
  cfg.map.num_pes = machine.num_pes();
  cfg.map.tables_per_pe = 8;
  cfg.map.global_batch = 64 * machine.num_pes();
  cfg.map.dim = 256;
  cfg.map.vectors_per_slice = 32;
  cfg.functional = false;
  fused::FusedEmbeddingAllToAll op(world, cfg, nullptr);
  const fused::OperatorResult res = op.run_to_completion();
  return {res.duration(), res.pe_end, machine.last_run_stats().events,
          world.puts_issued()};
}

// The flagship's per-PE shape on a torus whose carry from x into y makes a
// plain (self + k) rotation send different columns different 2D shifts.
TEST(FusedSharded, Torus8x2EmbeddingMatchesGolden) {
  EmbeddingGolden g;
  // FCC_GOLDEN torus8x2_embedding
  g.span = 719741;
  g.pe_end = std::vector<TimeNs>(16, 717741);
  g.events = 279003;
  g.puts = 7680;
  for (const int shards : {1, 2, 4}) {
    EXPECT_EQ(run_torus8x2_embedding(shards), g) << "shards=" << shards;
  }
}

// ---------------------------------------------------------------------------
// 2. fw::Graph diamond on a sharded Session
// ---------------------------------------------------------------------------

fw::GraphResult run_diamond(const gpu::Machine::Config& mc) {
  const fw::OpRegistry& reg = fw::OpRegistry::global();
  // Diamond over real ops: the embedding feeds two independent middle
  // stages (gemv + gemm) which join into the MoE dispatch.
  fw::Graph g;
  auto t1 = g.tensor("t1");
  auto t2 = g.tensor("t2");
  auto t3 = g.tensor("t3");
  auto t4 = g.tensor("t4");
  g.add(reg.at("fcc::embedding_a2a").smoke_spec(), {}, {t1}, "top");
  g.add(reg.at("fcc::gemv_allreduce").smoke_spec(), {t1}, {t2}, "left");
  g.add(reg.at("fcc::gemm_a2a").smoke_spec(), {t1}, {t3}, "right");
  g.add(reg.at("fcc::moe_dispatch").smoke_spec(), {t2, t3}, {t4}, "join");

  fw::Session session(mc);
  return session.run(g, fw::Backend::kFused);
}

TEST(FusedSharded, GraphDiamondMatchesSerial) {
  for (const auto& [label, serial_cfg, make] : {
           std::tuple{"fc", fc_config(1), &fc_config},
           std::tuple{"torus", torus_config(1), &torus_config},
       }) {
    SCOPED_TRACE(label);
    const fw::GraphResult serial = run_diamond(serial_cfg);
    ASSERT_EQ(serial.nodes.size(), 4u);
    EXPECT_GT(serial.overlap_fraction(), 0.0);  // the sides really overlap
    for (const int shards : {2, 4}) {
      const fw::GraphResult sharded = run_diamond(make(shards));
      EXPECT_EQ(sharded.makespan(), serial.makespan()) << "shards=" << shards;
      EXPECT_EQ(sharded.critical_path_ns, serial.critical_path_ns);
      ASSERT_EQ(sharded.nodes.size(), serial.nodes.size());
      for (std::size_t i = 0; i < serial.nodes.size(); ++i) {
        EXPECT_EQ(sharded.nodes[i].result, serial.nodes[i].result)
            << "shards=" << shards << " node " << serial.nodes[i].label;
      }
    }
  }
}

/// A root embedding feeding all four fused operators: none of the four is
/// spawned before the root completes, so each first spawn — and with it the
/// creation of its flag arrays, of both flag kinds (set and add) — happens
/// inside the (threaded, when sharded) run, and their flag PUTs cross
/// shards.
fw::GraphResult run_fan_out(const gpu::Machine::Config& mc) {
  const fw::OpRegistry& reg = fw::OpRegistry::global();
  fw::Graph g;
  auto root = g.tensor("root");
  g.add(reg.at("fcc::embedding_a2a").smoke_spec(), {}, {root}, "root");
  for (const char* op : {"fcc::embedding_a2a", "fcc::gemv_allreduce",
                         "fcc::gemm_a2a", "fcc::moe_dispatch"}) {
    g.add(reg.at(op).smoke_spec(), {root}, {g.tensor(std::string(op) + "/out")},
          op);
  }
  fw::Session session(mc);
  return session.run(g, fw::Backend::kFused);
}

TEST(FusedSharded, OpsFirstSpawnedInsideAThreadedRunMatchSerial) {
  for (const auto& [label, serial_cfg, sharded_cfg] : {
           std::tuple{"fc", fc_config(1), fc_config(2)},
           std::tuple{"torus", torus_config(1), torus_config(2)},
       }) {
    SCOPED_TRACE(label);
    const fw::GraphResult serial = run_fan_out(serial_cfg);
    const fw::GraphResult sharded = run_fan_out(sharded_cfg);
    ASSERT_EQ(serial.nodes.size(), 5u);
    ASSERT_EQ(sharded.nodes.size(), serial.nodes.size());
    EXPECT_EQ(sharded.makespan(), serial.makespan());
    for (std::size_t i = 0; i < serial.nodes.size(); ++i) {
      EXPECT_EQ(sharded.nodes[i].result, serial.nodes[i].result)
          << "node " << serial.nodes[i].label;
    }
  }
}

// ---------------------------------------------------------------------------
// 3. Warm sharded serving determinism
// ---------------------------------------------------------------------------

serve::ServeReport serve_once(const gpu::Machine::Config& mc, int repeats) {
  gpu::Machine machine(mc);
  shmem::World world(machine);
  auto catalog = serve::default_catalog(machine.num_pes());
  const auto weights = serve::class_weights(catalog);
  serve::Simulator sim(machine, world, std::move(catalog));
  const auto trace = serve::poisson_trace(4e4, 80, 99, weights);

  serve::ServeReport report = sim.run(trace);
  for (int rep = 1; rep < repeats; ++rep) {
    const serve::ServeReport again = sim.run(trace);
    EXPECT_EQ(again.records, report.records) << "warm repeat " << rep;
    EXPECT_EQ(again.overall, report.overall) << "warm repeat " << rep;
  }
  EXPECT_EQ(machine.sharded().live_tasks(), 0);
  return report;
}

TEST(FusedSharded, WarmShardedServeIsDeterministicAndMatchesSerial) {
  const serve::ServeReport serial = serve_once(fc_config(1), /*repeats=*/1);
  EXPECT_GT(serial.overall.completed, 0);
  for (const int shards : {2, 4}) {
    const serve::ServeReport sharded = serve_once(fc_config(shards),
                                                  /*repeats=*/2);
    EXPECT_EQ(sharded.records, serial.records) << "shards=" << shards;
    EXPECT_EQ(sharded.overall, serial.overall) << "shards=" << shards;
  }
}

// ---------------------------------------------------------------------------
// 4. Capability check
// ---------------------------------------------------------------------------

/// Runs `build`, which must throw the capability check's std::logic_error.
void expect_capability_error(const char* what,
                             const std::function<void()>& build) {
  SCOPED_TRACE(what);
  try {
    build();
    FAIL() << "expected the capability check to fire";
  } catch (const std::logic_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("kernel_launch_ns"), std::string::npos) << msg;
    EXPECT_NE(msg.find("conservative lookahead"), std::string::npos) << msg;
    EXPECT_NE(msg.find("num_shards=1"), std::string::npos) << msg;
  }
}

TEST(FusedSharded, SimulatorRejectsLaunchLatencyBelowLookahead) {
  gpu::Machine::Config mc = fc_config(2);
  // Lookahead on the fully-connected fabric is per_msg_proc + wire; drop
  // the kernel-launch latency below it so per-PE spawns would violate the
  // window.
  mc.gpu.kernel_launch_ns = mc.ib.per_msg_proc_ns + mc.ib.wire_latency_ns - 1;
  gpu::Machine machine(mc);
  EXPECT_FALSE(machine.supports_fused_ops());
  shmem::World world(machine);
  expect_capability_error("serve::Simulator", [&] {
    serve::Simulator sim(machine, world,
                         serve::default_catalog(machine.num_pes()));
  });

  const fw::OpSpec spec =
      fw::OpRegistry::global().at("fcc::embedding_a2a").smoke_spec();
  expect_capability_error("Session::run(spec)", [&] {
    fw::Session session(mc);
    session.run(spec);
  });
  expect_capability_error("Session::run(graph)", [&] {
    fw::Graph g;
    g.add(spec, {}, {g.tensor("out")}, "emb");
    fw::Session session(mc);
    session.run(g);
  });
  expect_capability_error("dlrm::DlrmModel", [&] {
    fw::Session session(mc);
    dlrm::DlrmConfig cfg;
    cfg.emb = fw::spec_config<fused::EmbeddingA2AConfig>(spec);
    cfg.bottom_mlp = {32, cfg.emb.map.dim};
    dlrm::DlrmModel(session, cfg).forward(1);
  });

  // Serial machines never hit the check, whatever the launch latency.
  mc.num_shards = 1;
  gpu::Machine serial(mc);
  EXPECT_TRUE(serial.supports_fused_ops());
}

}  // namespace
}  // namespace fcc
