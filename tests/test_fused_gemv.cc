// Fused GEMV + AllReduce: numerics vs baseline vs reference, timing shape.
#include <gtest/gtest.h>

#include <vector>

#include "framework/session.h"
#include "fused/gemv_allreduce.h"
#include "gpu/machine.h"
#include "ops/gemv.h"
#include "reference_models.h"
#include "reject_config.h"
#include "shmem/world.h"

namespace fcc::fused {
namespace {

gpu::Machine::Config scale_up(int gpus = 4) {
  gpu::Machine::Config c;
  c.num_nodes = 1;
  c.gpus_per_node = gpus;
  return c;
}

GemvAllReduceConfig small_cfg(int pes) {
  GemvAllReduceConfig cfg;
  cfg.m = 64;
  cfg.k_global = 32 * pes;
  cfg.tile_rows = 8;  // 8 tiles, divisible by pes for pes in {2,4}
  cfg.functional = true;
  return cfg;
}

/// Reference: sum over PEs of W_pe x_pe.
std::vector<float> reference_y(const GemvAllReduceConfig& cfg, int pes,
                               const GemvAllReduceData& data) {
  std::vector<float> y(static_cast<std::size_t>(cfg.m), 0.0f);
  const auto shape = cfg.shape(pes);
  for (int pe = 0; pe < pes; ++pe) {
    const auto part = ops::gemv_reference(
        shape, data.w[static_cast<std::size_t>(pe)],
        data.x[static_cast<std::size_t>(pe)]);
    for (int r = 0; r < cfg.m; ++r) {
      y[static_cast<std::size_t>(r)] += part[static_cast<std::size_t>(r)];
    }
  }
  return y;
}

TEST(FusedGemv, TileOwnershipIsContiguousAndBalanced) {
  gpu::Machine m(scale_up(4));
  shmem::World w(m);
  auto cfg = small_cfg(4);
  cfg.functional = false;
  FusedGemvAllReduce op(w, cfg, nullptr);
  const int tiles = cfg.shape(4).num_tiles();
  std::vector<int> count(4, 0);
  PeId prev = 0;
  for (int t = 0; t < tiles; ++t) {
    const PeId o = op.owner_of_tile(t);
    EXPECT_GE(o, prev);  // contiguous ranges
    prev = o;
    ++count[static_cast<std::size_t>(o)];
  }
  for (int c : count) EXPECT_EQ(c, tiles / 4);
}

TEST(FusedGemv, MatchesReferenceFourGpus) {
  const int pes = 4;
  auto cfg = small_cfg(pes);
  gpu::Machine m(scale_up(pes));
  shmem::World w(m);
  shmem::SymArray<float> y(pes, static_cast<std::size_t>(cfg.m));
  auto data = GemvAllReduceData::random(cfg, pes, &y, /*seed=*/31);
  const auto ref = reference_y(cfg, pes, data);

  FusedGemvAllReduce op(w, cfg, &data);
  const auto res = op.run_to_completion();
  EXPECT_GT(res.duration(), 0);
  for (PeId pe = 0; pe < pes; ++pe) {
    auto got = y.pe(pe);
    for (int r = 0; r < cfg.m; ++r) {
      ASSERT_NEAR(got[static_cast<std::size_t>(r)],
                  ref[static_cast<std::size_t>(r)], 1e-3)
          << "pe " << pe << " row " << r;
    }
  }
}

TEST(FusedGemv, MatchesReferenceTwoGpus) {
  const int pes = 2;
  auto cfg = small_cfg(pes);
  gpu::Machine m(scale_up(pes));
  shmem::World w(m);
  shmem::SymArray<float> y(pes, static_cast<std::size_t>(cfg.m));
  auto data = GemvAllReduceData::random(cfg, pes, &y, /*seed=*/37);
  const auto ref = reference_y(cfg, pes, data);

  FusedGemvAllReduce(w, cfg, &data).run_to_completion();
  for (PeId pe = 0; pe < pes; ++pe) {
    auto got = y.pe(pe);
    for (int r = 0; r < cfg.m; ++r) {
      ASSERT_NEAR(got[static_cast<std::size_t>(r)],
                  ref[static_cast<std::size_t>(r)], 1e-3);
    }
  }
}

TEST(BaselineGemv, MatchesReference) {
  const int pes = 4;
  auto cfg = small_cfg(pes);
  gpu::Machine m(scale_up(pes));
  shmem::World w(m);
  shmem::SymArray<float> y(pes, static_cast<std::size_t>(cfg.m));
  auto data = GemvAllReduceData::random(cfg, pes, &y, /*seed=*/41);
  const auto ref = reference_y(cfg, pes, data);

  BaselineGemvAllReduce op(w, cfg, &data);
  const auto res = op.run_to_completion();
  EXPECT_GT(res.duration(), 0);
  for (PeId pe = 0; pe < pes; ++pe) {
    auto got = y.pe(pe);
    for (int r = 0; r < cfg.m; ++r) {
      ASSERT_NEAR(got[static_cast<std::size_t>(r)],
                  ref[static_cast<std::size_t>(r)], 1e-3);
    }
  }
}

TEST(FusedGemv, FusedEqualsBaseline) {
  const int pes = 4;
  auto cfg = small_cfg(pes);

  gpu::Machine mf(scale_up(pes));
  shmem::World wf(mf);
  shmem::SymArray<float> yf(pes, static_cast<std::size_t>(cfg.m));
  auto df = GemvAllReduceData::random(cfg, pes, &yf, /*seed=*/43);
  FusedGemvAllReduce(wf, cfg, &df).run_to_completion();

  gpu::Machine mb(scale_up(pes));
  shmem::World wb(mb);
  shmem::SymArray<float> yb(pes, static_cast<std::size_t>(cfg.m));
  auto db = GemvAllReduceData::random(cfg, pes, &yb, /*seed=*/43);
  BaselineGemvAllReduce(wb, cfg, &db).run_to_completion();

  for (PeId pe = 0; pe < pes; ++pe) {
    auto a = yf.pe(pe);
    auto b = yb.pe(pe);
    for (int r = 0; r < cfg.m; ++r) {
      ASSERT_NEAR(a[static_cast<std::size_t>(r)], b[static_cast<std::size_t>(r)],
                  1e-3);
    }
  }
}

GemvAllReduceConfig timing_cfg(int m, int k) {
  GemvAllReduceConfig cfg;
  cfg.m = m;
  cfg.k_global = k;
  cfg.functional = false;
  return cfg;
}

TEST(FusedGemv, FusedIsFasterThanBaseline) {
  const auto cfg = timing_cfg(8192, 8192);
  gpu::Machine mf(scale_up(4));
  shmem::World wf(mf);
  const auto rf = FusedGemvAllReduce(wf, cfg, nullptr).run_to_completion();

  gpu::Machine mb(scale_up(4));
  shmem::World wb(mb);
  const auto rb = BaselineGemvAllReduce(wb, cfg, nullptr).run_to_completion();

  EXPECT_LT(rf.duration(), rb.duration());
}

TEST(FusedGemv, RelativeBenefitShrinksAtLargeM) {
  // The Fig. 9 shape: larger outputs raise fabric contention and the fixed
  // overheads amortize, so fused/baseline ratio approaches 1.
  auto ratio = [](int m) {
    const auto cfg = timing_cfg(m, 8192);
    gpu::Machine mf(scale_up(4));
    shmem::World wf(mf);
    const auto rf = FusedGemvAllReduce(wf, cfg, nullptr).run_to_completion();
    gpu::Machine mb(scale_up(4));
    shmem::World wb(mb);
    const auto rb =
        BaselineGemvAllReduce(wb, cfg, nullptr).run_to_completion();
    return static_cast<double>(rf.duration()) /
           static_cast<double>(rb.duration());
  };
  const double small = ratio(8192);
  const double large = ratio(65536);
  EXPECT_LT(small, large);  // more benefit (lower ratio) at small M
  EXPECT_LT(large, 1.0);    // still a win at 64k
}

TEST(BaselineGemv, DirectConstructionHonoursConfiguredAllReduceAlgo) {
  gpu::Machine::Config two_by_four;
  two_by_four.num_nodes = 2;
  two_by_four.gpus_per_node = 4;
  auto cfg = timing_cfg(8192, 8192);
  auto direct_run = [&](ccl::AllReduceAlgo algo) {
    cfg.allreduce_algo = algo;
    gpu::Machine m(two_by_four);
    shmem::World w(m);
    return BaselineGemvAllReduce(w, cfg, nullptr).run_to_completion();
  };
  const auto ring = direct_run(ccl::AllReduceAlgo::kRing);
  const auto two_phase = direct_run(ccl::AllReduceAlgo::kTwoPhaseDirect);

  cfg.allreduce_algo = ccl::AllReduceAlgo::kRing;
  fw::Session s(two_by_four);
  const auto dispatched = s.run(fw::make_spec("fcc::gemv_allreduce", cfg),
                                fw::Backend::kBaseline);
  EXPECT_EQ(ring.duration(), dispatched.duration());
  EXPECT_EQ(ring.pe_end, dispatched.pe_end);
  EXPECT_NE(ring.duration(), two_phase.duration());
}

TEST(FusedGemv, DeterministicAcrossRuns) {
  const auto cfg = timing_cfg(4096, 4096);
  auto once = [&] {
    gpu::Machine m(scale_up(4));
    shmem::World w(m);
    return FusedGemvAllReduce(w, cfg, nullptr).run_to_completion().duration();
  };
  EXPECT_EQ(once(), once());
}

// A partial-tile store's "put" trace instant is stamped when the store's
// issue completes. With one slot per GPU every compute step runs alone, and
// the comm-aware order puts the remote tiles first, so a slot's k-th PUT
// is issued after k issue latencies: raising the store issue latency by d
// moves the k-th instant by exactly k * d. (Stamped at the tile's compute
// start, it would move by (k - 1) * d.)
TEST(FusedGemv, PutInstantsFallAtIssueCompletion) {
  auto put_instants = [](TimeNs issue_ns) {
    gpu::Machine::Config mc = scale_up(4);
    mc.fabric.store_issue_overhead_ns = issue_ns;
    mc.collect_trace = true;
    gpu::Machine m(mc);
    shmem::World w(m);
    FusedGemvAllReduce(w,
                       {.m = 256,
                        .k_global = 1024,
                        .tile_rows = 16,
                        .occupancy_slots_override = 1},
                       nullptr)
        .run_to_completion();
    std::vector<std::vector<TimeNs>> at(4);
    for (const auto& i : m.trace().instants()) {
      if (i.name == "put") at[static_cast<std::size_t>(i.pid)].push_back(i.at);
    }
    return at;
  };
  constexpr TimeNs kDelta = 1000;
  const auto base = put_instants(100);
  const auto later = put_instants(100 + kDelta);
  for (std::size_t pe = 0; pe < 4; ++pe) {
    ASSERT_EQ(base[pe].size(), 12u) << "pe " << pe;  // 12 of 16 tiles remote
    ASSERT_EQ(later[pe].size(), base[pe].size()) << "pe " << pe;
    for (std::size_t k = 0; k < base[pe].size(); ++k) {
      EXPECT_EQ(later[pe][k] - base[pe][k],
                static_cast<TimeNs>(k + 1) * kDelta)
          << "pe " << pe << ", put " << k;
    }
  }
}

TEST(FusedGemv, RejectsIndivisibleTileCounts) {
  gpu::Machine m(scale_up(4));
  shmem::World w(m);
  GemvAllReduceConfig cfg;
  cfg.m = 48;        // 3 tiles of 16 across 4 GPUs
  cfg.k_global = 64;
  EXPECT_THROW(FusedGemvAllReduce(w, cfg, nullptr), std::logic_error);
}

/// Both backends reject `cfg` at construction.
void expect_both_reject(const GemvAllReduceConfig& cfg) {
  gpu::Machine m(scale_up(4));
  shmem::World w(m);
  EXPECT_THROW(FusedGemvAllReduce(w, cfg, nullptr), std::logic_error);
  EXPECT_THROW(BaselineGemvAllReduce(w, cfg, nullptr), std::logic_error);
}

TEST(GemvConfig, RejectsNonPositiveM) {
  for (int m : {0, -64}) {
    auto cfg = timing_cfg(4096, 4096);
    cfg.m = m;
    expect_both_reject(cfg);
  }
}

TEST(GemvConfig, RejectsNonPositiveKGlobal) {
  auto cfg = timing_cfg(4096, 4096);
  cfg.k_global = 0;
  expect_both_reject(cfg);
}

TEST(GemvConfig, RejectsNonPositiveTileRows) {
  auto cfg = timing_cfg(4096, 4096);
  cfg.tile_rows = 0;
  expect_both_reject(cfg);
}

// A negative override used to be read as "derive the slot count".
TEST(GemvConfig, RejectsNegativeSlotsOverride) {
  gpu::Machine m(scale_up(4));
  shmem::World w(m);
  auto cfg = timing_cfg(4096, 4096);
  cfg.occupancy_slots_override = -3;
  test::expect_both_reject<FusedGemvAllReduce, BaselineGemvAllReduce>(
      w, cfg, "GemvAllReduceConfig::occupancy_slots_override", -3);
}

TEST(BaselineGemv, ForcedHierarchicalNeedsSeveralMultiGpuNodes) {
  auto cfg = timing_cfg(4096, 4096);
  cfg.allreduce_algo = ccl::AllReduceAlgo::kHierarchical;
  gpu::Machine one_node(scale_up(4));
  shmem::World w1(one_node);
  EXPECT_THROW(BaselineGemvAllReduce(w1, cfg, nullptr), std::logic_error);

  gpu::Machine::Config two_by_four;
  two_by_four.num_nodes = 2;
  two_by_four.gpus_per_node = 4;
  gpu::Machine two_nodes(two_by_four);
  shmem::World w2(two_nodes);
  EXPECT_GT(BaselineGemvAllReduce(w2, cfg, nullptr)
                .run_to_completion()
                .duration(),
            0);
}

}  // namespace
}  // namespace fcc::fused
