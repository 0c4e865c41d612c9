// DLRM distributed forward pass: functional equivalence fused vs baseline,
// component timing sanity, warm re-runs, and serial == sharded.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "dlrm/model.h"

namespace fcc::dlrm {
namespace {

gpu::Machine::Config four_gpus() {
  gpu::Machine::Config c;
  c.num_nodes = 1;
  c.gpus_per_node = 4;
  return c;
}

DlrmConfig small_dlrm(fw::Backend backend, bool functional) {
  DlrmConfig cfg;
  cfg.emb.map.num_pes = 4;
  cfg.emb.map.tables_per_pe = 2;
  cfg.emb.map.global_batch = 16;
  cfg.emb.map.dim = 8;
  cfg.emb.map.vectors_per_slice = 2;
  cfg.emb.pooling = 4;
  cfg.emb.rows_per_table = 32;
  cfg.emb.functional = functional;
  cfg.dense_dim = 6;
  cfg.bottom_mlp = {12, 8};  // output 8 == emb dim
  cfg.top_mlp = {16, 1};
  cfg.backend = backend;
  return cfg;
}

TEST(DlrmConfig, ValidatesBottomWidthAgainstEmbDim) {
  auto cfg = small_dlrm(fw::Backend::kFused, false);
  cfg.bottom_mlp = {12, 9};  // != dim 8
  EXPECT_THROW(cfg.validate(), std::logic_error);
}

TEST(DlrmConfig, FeatureCounting) {
  const auto cfg = small_dlrm(fw::Backend::kFused, false);
  EXPECT_EQ(cfg.num_features(), 9);            // 8 global tables + bottom
  EXPECT_EQ(cfg.interaction_dim(), 36 + 8);    // C(9,2) + passthrough
}

TEST(DlrmModel, ForwardProducesLogitsInUnitInterval) {
  fw::Session s(four_gpus());
  DlrmModel model(s, small_dlrm(fw::Backend::kFused, true));
  const auto res = model.forward(/*seed=*/5);
  ASSERT_EQ(res.logits.size(), 4u);
  for (const auto& pe : res.logits) {
    ASSERT_EQ(pe.size(), 4u);  // local_batch x top width 1
    for (float v : pe) {
      EXPECT_GE(v, 0.0f);
      EXPECT_LE(v, 1.0f);  // sigmoid saturates in fp32 for large logits
    }
  }
  EXPECT_GT(res.total_ns, 0);
  EXPECT_GT(res.emb_a2a.duration(), 0);
  EXPECT_GT(res.bottom_mlp_ns, 0);
  EXPECT_GT(res.top_mlp_ns, 0);
}

TEST(DlrmModel, FusedAndBaselinePathsProduceIdenticalLogits) {
  fw::Session sf(four_gpus());
  DlrmModel mf(sf, small_dlrm(fw::Backend::kFused, true));
  const auto rf = mf.forward(/*seed=*/7);

  fw::Session sb(four_gpus());
  DlrmModel mb(sb, small_dlrm(fw::Backend::kBaseline, true));
  const auto rb = mb.forward(/*seed=*/7);

  ASSERT_EQ(rf.logits.size(), rb.logits.size());
  for (std::size_t pe = 0; pe < rf.logits.size(); ++pe) {
    ASSERT_EQ(rf.logits[pe].size(), rb.logits[pe].size());
    for (std::size_t i = 0; i < rf.logits[pe].size(); ++i) {
      ASSERT_NEAR(rf.logits[pe][i], rb.logits[pe][i], 1e-4);
    }
  }
}

TEST(DlrmModel, FusedForwardIsFasterAtScale) {
  auto cfg_f = small_dlrm(fw::Backend::kFused, false);
  cfg_f.emb.map.global_batch = 512;
  cfg_f.emb.map.tables_per_pe = 16;
  cfg_f.emb.map.dim = 64;
  cfg_f.emb.map.vectors_per_slice = 32;
  cfg_f.emb.pooling = 64;
  cfg_f.bottom_mlp = {128, 64};
  auto cfg_b = cfg_f;
  cfg_b.backend = fw::Backend::kBaseline;

  fw::Session sf(four_gpus());
  const auto rf = DlrmModel(sf, cfg_f).forward(1);
  fw::Session sb(four_gpus());
  const auto rb = DlrmModel(sb, cfg_b).forward(1);
  EXPECT_LT(rf.total_ns, rb.total_ns);
}

TEST(DlrmModel, WarmForwardRepeatsDurationsAndLogits) {
  for (fw::Backend backend : {fw::Backend::kFused, fw::Backend::kBaseline}) {
    fw::Session s(four_gpus());
    DlrmModel model(s, small_dlrm(backend, true));
    const DlrmResult first = model.forward(1);
    const DlrmResult second = model.forward(1);
    EXPECT_EQ(second.emb_a2a.duration(), first.emb_a2a.duration());
    EXPECT_EQ(second.bottom_mlp_ns, first.bottom_mlp_ns);
    EXPECT_EQ(second.top_mlp_ns, first.top_mlp_ns);
    EXPECT_EQ(second.total_ns, first.total_ns);
    EXPECT_EQ(second.logits, first.logits);
  }
}

/// One functional forward pass on `nodes` x `gpus_per_node` GPUs, the
/// engine split into `shards`.
DlrmResult forward_on(int nodes, int gpus_per_node, int shards,
                      fw::Backend backend) {
  gpu::Machine::Config c;
  c.num_nodes = nodes;
  c.gpus_per_node = gpus_per_node;
  c.num_shards = shards;
  fw::Session s(c);
  return DlrmModel(s, small_dlrm(backend, true)).forward(3);
}

TEST(DlrmModel, ShardedForwardMatchesSerial) {
  for (fw::Backend backend : {fw::Backend::kFused, fw::Backend::kBaseline}) {
    for (const auto& [nodes, gpus] : {std::pair{2, 2}, std::pair{4, 1}}) {
      const DlrmResult serial = forward_on(nodes, gpus, 1, backend);
      for (const int shards : {2, 4}) {
        if (shards > nodes) continue;  // shards are node-aligned
        SCOPED_TRACE(std::to_string(nodes) + "x" + std::to_string(gpus) +
                     " at " + std::to_string(shards) + " shards");
        const DlrmResult r = forward_on(nodes, gpus, shards, backend);
        EXPECT_EQ(r.emb_a2a, serial.emb_a2a);
        EXPECT_EQ(r.bottom_mlp_ns, serial.bottom_mlp_ns);
        EXPECT_EQ(r.top_mlp_ns, serial.top_mlp_ns);
        EXPECT_EQ(r.total_ns, serial.total_ns);
        EXPECT_EQ(r.logits, serial.logits);
      }
    }
  }
}

}  // namespace
}  // namespace fcc::dlrm
