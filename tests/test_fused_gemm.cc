// Fused GEMM + All-to-All (MoE combine): numerics and timing shape.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fused/gemm_a2a.h"
#include "gpu/machine.h"
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

GemmA2AConfig small_cfg() {
  GemmA2AConfig cfg;
  cfg.rows_per_origin = 8;
  cfg.d_model = 12;
  cfg.d_ff = 16;
  cfg.block_m = 4;
  cfg.block_n = 8;
  cfg.functional = true;
  return cfg;
}

/// Reference output at origin o: for each expert e, rows [o*R, (o+1)*R) of
/// C_e = A_e * B_e, laid out [expert][local_row][col].
std::vector<std::vector<float>> reference_out(const GemmA2AConfig& cfg,
                                              int pes,
                                              const GemmA2AData& data) {
  const auto shape = cfg.shape(pes);
  std::vector<std::vector<float>> expect(
      static_cast<std::size_t>(pes),
      std::vector<float>(cfg.out_elems(pes), 0.0f));
  for (int e = 0; e < pes; ++e) {
    const auto c = ops::gemm_reference(shape, data.a[static_cast<std::size_t>(e)],
                                       data.b[static_cast<std::size_t>(e)]);
    for (int o = 0; o < pes; ++o) {
      for (int lr = 0; lr < cfg.rows_per_origin; ++lr) {
        const int r = o * cfg.rows_per_origin + lr;
        for (int j = 0; j < cfg.d_model; ++j) {
          expect[static_cast<std::size_t>(o)]
                [(static_cast<std::size_t>(e) * cfg.rows_per_origin +
                  static_cast<std::size_t>(lr)) *
                     static_cast<std::size_t>(cfg.d_model) +
                 static_cast<std::size_t>(j)] =
              c[static_cast<std::size_t>(r) * cfg.d_model +
                static_cast<std::size_t>(j)];
        }
      }
    }
  }
  return expect;
}

TEST(FusedGemm, MatchesReference) {
  const int pes = 4;
  auto cfg = small_cfg();
  gpu::Machine m(scale_up(pes));
  shmem::World w(m);
  shmem::SymArray<float> out(pes, cfg.out_elems(pes));
  auto data = GemmA2AData::random(cfg, pes, &out, /*seed=*/61);
  const auto expect = reference_out(cfg, pes, data);

  FusedGemmAllToAll op(w, cfg, &data);
  const auto res = op.run_to_completion();
  EXPECT_GT(res.duration(), 0);
  for (PeId pe = 0; pe < pes; ++pe) {
    auto got = out.pe(pe);
    const auto& want = expect[static_cast<std::size_t>(pe)];
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_NEAR(got[i], want[i], 1e-3) << "pe " << pe << " elem " << i;
    }
  }
}

TEST(BaselineGemm, MatchesReference) {
  const int pes = 4;
  auto cfg = small_cfg();
  gpu::Machine m(scale_up(pes));
  shmem::World w(m);
  shmem::SymArray<float> out(pes, cfg.out_elems(pes));
  auto data = GemmA2AData::random(cfg, pes, &out, /*seed=*/67);
  const auto expect = reference_out(cfg, pes, data);

  BaselineGemmAllToAll op(w, cfg, &data);
  op.run_to_completion();
  for (PeId pe = 0; pe < pes; ++pe) {
    auto got = out.pe(pe);
    const auto& want = expect[static_cast<std::size_t>(pe)];
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_NEAR(got[i], want[i], 1e-3);
    }
  }
}

TEST(FusedGemm, FusedEqualsBaseline) {
  const int pes = 2;
  auto cfg = small_cfg();

  gpu::Machine mf(scale_up(pes));
  shmem::World wf(mf);
  shmem::SymArray<float> of(pes, cfg.out_elems(pes));
  auto df = GemmA2AData::random(cfg, pes, &of, /*seed=*/71);
  FusedGemmAllToAll(wf, cfg, &df).run_to_completion();

  gpu::Machine mb(scale_up(pes));
  shmem::World wb(mb);
  shmem::SymArray<float> ob(pes, cfg.out_elems(pes));
  auto db = GemmA2AData::random(cfg, pes, &ob, /*seed=*/71);
  BaselineGemmAllToAll(wb, cfg, &db).run_to_completion();

  for (PeId pe = 0; pe < pes; ++pe) {
    auto a = of.pe(pe);
    auto b = ob.pe(pe);
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_NEAR(a[i], b[i], 1e-3);
    }
  }
}

GemmA2AConfig timing_cfg() {
  GemmA2AConfig cfg;
  cfg.rows_per_origin = 1024;
  cfg.d_model = 1024;
  cfg.d_ff = 2048;
  cfg.functional = false;
  return cfg;
}

TEST(FusedGemm, FusedIsFasterThanBaseline) {
  const auto cfg = timing_cfg();
  gpu::Machine mf(scale_up(4));
  shmem::World wf(mf);
  const auto rf = FusedGemmAllToAll(wf, cfg, nullptr).run_to_completion();

  gpu::Machine mb(scale_up(4));
  shmem::World wb(mb);
  const auto rb = BaselineGemmAllToAll(wb, cfg, nullptr).run_to_completion();

  EXPECT_LT(rf.duration(), rb.duration());
  // GEMM dominates: the win is bounded (paper: 12% avg, up to 20%).
  EXPECT_GT(static_cast<double>(rf.duration()) / rb.duration(), 0.6);
}

// block_m need not divide rows_per_origin: each origin's segment is padded
// to a whole number of tiles, so every tile still has one destination.
TEST(FusedGemm, MisalignedRowsMatchReferenceOnBothBackends) {
  const int pes = 4;
  auto cfg = small_cfg();
  cfg.rows_per_origin = 6;  // block_m = 4
  auto run = [&](auto make_op) {
    gpu::Machine m(scale_up(pes));
    shmem::World w(m);
    shmem::SymArray<float> out(pes, cfg.out_elems(pes));
    auto data = GemmA2AData::random(cfg, pes, &out, /*seed=*/73);
    const auto expect = reference_out(cfg, pes, data);
    auto op = make_op(w, data);
    EXPECT_GT(op->run_to_completion().duration(), 0);
    for (PeId pe = 0; pe < pes; ++pe) {
      auto got = out.pe(pe);
      const auto& want = expect[static_cast<std::size_t>(pe)];
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_NEAR(got[i], want[i], 1e-3)
            << op->name() << " pe " << pe << " elem " << i;
      }
    }
  };
  run([&](shmem::World& w, GemmA2AData& d) {
    return std::make_unique<FusedGemmAllToAll>(w, cfg, &d);
  });
  run([&](shmem::World& w, GemmA2AData& d) {
    return std::make_unique<BaselineGemmAllToAll>(w, cfg, &d);
  });
}

// Each of these used to pass construction and then die mid-run: a shape
// check throwing inside the kernel's coroutine (SIGABRT) or a division by
// a zero block size (SIGFPE). A negative slot override was read as
// "derive".
void expect_gemm_rejects(void (*set)(GemmA2AConfig&, int), const char* field,
                         int value) {
  gpu::Machine m(scale_up(4));
  shmem::World w(m);
  GemmA2AConfig cfg;
  set(cfg, value);
  test::expect_both_reject<FusedGemmAllToAll, BaselineGemmAllToAll>(
      w, cfg, field, value);
}

TEST(GemmConfig, RejectsNonPositiveRowsPerOrigin) {
  expect_gemm_rejects([](GemmA2AConfig& c, int v) { c.rows_per_origin = v; },
                      "GemmA2AConfig::rows_per_origin", 0);
}

TEST(GemmConfig, RejectsNonPositiveDModel) {
  expect_gemm_rejects([](GemmA2AConfig& c, int v) { c.d_model = v; },
                      "GemmA2AConfig::d_model", 0);
}

TEST(GemmConfig, RejectsNonPositiveDFf) {
  expect_gemm_rejects([](GemmA2AConfig& c, int v) { c.d_ff = v; },
                      "GemmA2AConfig::d_ff", 0);
}

TEST(GemmConfig, RejectsNonPositiveBlockM) {
  expect_gemm_rejects([](GemmA2AConfig& c, int v) { c.block_m = v; },
                      "GemmA2AConfig::block_m", 0);
}

TEST(GemmConfig, RejectsNonPositiveBlockN) {
  expect_gemm_rejects([](GemmA2AConfig& c, int v) { c.block_n = v; },
                      "GemmA2AConfig::block_n", 0);
}

TEST(GemmConfig, RejectsNegativeSlotsOverride) {
  expect_gemm_rejects(
      [](GemmA2AConfig& c, int v) { c.occupancy_slots_override = v; },
      "GemmA2AConfig::occupancy_slots_override", -3);
}

TEST(FusedGemm, DeterministicAcrossRuns) {
  const auto cfg = timing_cfg();
  auto once = [&] {
    gpu::Machine m(scale_up(4));
    shmem::World w(m);
    return FusedGemmAllToAll(w, cfg, nullptr).run_to_completion().duration();
  };
  EXPECT_EQ(once(), once());
}

}  // namespace
}  // namespace fcc::fused
