// Scale-out training on the torus: torus shapes for the Fig. 15 sweep and
// one DLRM training iteration as a graph (fused vs baseline, serial ==
// sharded, warm == cold).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_common.h"
#include "dlrm/model.h"
#include "framework/session.h"
#include "hw/topology.h"

namespace fcc {
namespace {

TEST(Torus, FactorsNodesNearSquare) {
  const auto t128 = fccbench::torus_for_nodes(128);
  EXPECT_EQ(t128.dim_x * t128.dim_y, 128);
  EXPECT_EQ(t128.dim_y, 8);
  EXPECT_EQ(t128.dim_x, 16);
  const auto t64 = fccbench::torus_for_nodes(64);
  EXPECT_EQ(t64.dim_x, 8);
  EXPECT_EQ(t64.dim_y, 8);
}

TEST(Torus, DegenerateSingleNodeTorusIsRejected) {
  // A 1x1 torus has no links; construction fails fast with a clear check
  // message instead of silently modeling a zero-cost network.
  EXPECT_THROW(hw::TorusTopology(fccbench::torus_for_nodes(1)),
               std::logic_error);
}

TEST(Torus, SpecValidationRejectsNonPositiveDimsAndBandwidth) {
  hw::TorusSpec bad_dims;
  bad_dims.dim_x = 0;
  EXPECT_THROW(bad_dims.validate(), std::logic_error);
  hw::TorusSpec bad_bw;
  bad_bw.link_bytes_per_ns = 0.0;
  EXPECT_THROW(bad_bw.validate(), std::logic_error);
  hw::TorusSpec bad_lat;
  bad_lat.link_latency_ns = -1;
  EXPECT_THROW(bad_lat.validate(), std::logic_error);
}

/// A 4x2 torus, one GPU per node, the engine split into `shards`.
gpu::Machine::Config torus_4x2(int shards) {
  gpu::Machine::Config c;
  c.num_nodes = 8;
  c.gpus_per_node = 1;
  c.topology.kind = hw::TopologySpec::Kind::kTorus2D;
  c.topology.torus.dim_x = 4;
  c.topology.torus.dim_y = 2;
  c.num_shards = shards;
  return c;
}

dlrm::DlrmConfig small_dlrm(fw::Backend backend) {
  dlrm::DlrmConfig cfg;
  cfg.emb.map.num_pes = 8;
  cfg.emb.map.tables_per_pe = 2;
  cfg.emb.map.global_batch = 64;
  cfg.emb.map.dim = 8;
  cfg.emb.map.vectors_per_slice = 4;
  cfg.emb.pooling = 4;
  cfg.dense_dim = 6;
  cfg.bottom_mlp = {12, 8};  // output 8 == emb dim
  cfg.top_mlp = {16, 1};
  cfg.backend = backend;
  return cfg;
}

/// Every node's ready, start and end time and its per-PE end times,
/// relative to the run's start.
std::vector<TimeNs> timeline(const fw::GraphResult& r) {
  std::vector<TimeNs> v;
  for (const auto& n : r.nodes) {
    v.push_back(n.ready - r.start);
    v.push_back(n.result.start - r.start);
    v.push_back(n.result.end - r.start);
    for (TimeNs t : n.result.pe_end) v.push_back(t - r.start);
  }
  return v;
}

TEST(TrainingIteration, FusedWinsAndShardedAndWarmRunsEqualSerial) {
  std::vector<TimeNs> makespan;
  for (fw::Backend backend : {fw::Backend::kFused, fw::Backend::kBaseline}) {
    fw::Session serial(torus_4x2(1));
    dlrm::DlrmModel model(serial, small_dlrm(backend));
    const fw::GraphResult cold = model.train_step();
    ASSERT_EQ(cold.nodes.size(), 9u);
    EXPECT_EQ(cold.nodes.back().label, "grad_allreduce");
    EXPECT_EQ(timeline(model.train_step()), timeline(cold));
    for (const int shards : {2, 4}) {
      SCOPED_TRACE(std::to_string(shards) + " shards");
      fw::Session sharded(torus_4x2(shards));
      const fw::GraphResult r =
          dlrm::DlrmModel(sharded, small_dlrm(backend)).train_step();
      EXPECT_EQ(r.start, cold.start);
      EXPECT_EQ(timeline(r), timeline(cold));
    }
    makespan.push_back(cold.makespan());
  }
  EXPECT_LT(makespan[0], makespan[1]);
}

}  // namespace
}  // namespace fcc
