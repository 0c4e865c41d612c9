// Fused MoE dispatch (routed All-to-All-v): layout bookkeeping, skewed
// numerics, empty-segment handling, timing under hot-expert imbalance, and
// registry dispatch with zero framework-file edits.
#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "framework/session.h"
#include "fused/moe_dispatch.h"
#include "gpu/machine.h"
#include "ops/gemm.h"
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

MoeDispatchConfig small_cfg(double hot = 4.0) {
  MoeDispatchConfig cfg;
  cfg.tokens_per_pe = 24;
  cfg.d_model = 12;
  cfg.d_out = 20;  // partial column tile with block_n = 16
  cfg.top_k = 2;
  cfg.block_m = 8;
  cfg.block_n = 16;
  cfg.hot_expert_factor = hot;
  cfg.functional = true;
  return cfg;
}

/// Expert e's expected recv rows: for each source in order, that source's
/// expert-e token rows projected through the shared weight.
std::vector<std::vector<float>> reference_recv(
    const MoeDispatchConfig& cfg, const std::vector<ops::DispatchPlan>& plans,
    const MoeDispatchData& data, const DispatchLayout& layout) {
  const int pes = layout.num_pes;
  ops::GemmShape row_shape;
  row_shape.m = cfg.tokens_per_pe;
  row_shape.n = cfg.d_out;
  row_shape.k = cfg.d_model;
  std::vector<std::vector<float>> expect(static_cast<std::size_t>(pes));
  // Project every source's full token batch once, then gather routed rows.
  std::vector<std::vector<float>> projected;
  for (int src = 0; src < pes; ++src) {
    projected.push_back(ops::gemm_reference(
        row_shape, data.tokens[static_cast<std::size_t>(src)], data.w));
  }
  for (int e = 0; e < pes; ++e) {
    auto& out = expect[static_cast<std::size_t>(e)];
    out.assign(static_cast<std::size_t>(
                   layout.recv_rows[static_cast<std::size_t>(e)]) *
                   static_cast<std::size_t>(cfg.d_out),
               0.0f);
    for (int src = 0; src < pes; ++src) {
      const auto& p = plans[static_cast<std::size_t>(src)];
      const std::int64_t base =
          layout.recv_off[static_cast<std::size_t>(e)]
                         [static_cast<std::size_t>(src)];
      for (std::int64_t i = 0; i < p.counts[static_cast<std::size_t>(e)];
           ++i) {
        const int tok = p.order[static_cast<std::size_t>(
            p.offsets[static_cast<std::size_t>(e)] + i)];
        for (int j = 0; j < cfg.d_out; ++j) {
          out[static_cast<std::size_t>(base + i) *
                  static_cast<std::size_t>(cfg.d_out) +
              static_cast<std::size_t>(j)] =
              projected[static_cast<std::size_t>(src)]
                       [static_cast<std::size_t>(tok) *
                            static_cast<std::size_t>(cfg.d_out) +
                        static_cast<std::size_t>(j)];
        }
      }
    }
  }
  return expect;
}

void expect_recv_matches(const MoeDispatchConfig& cfg,
                         const DispatchLayout& layout,
                         const shmem::SymArray<float>& recv,
                         const std::vector<std::vector<float>>& expect) {
  for (int e = 0; e < layout.num_pes; ++e) {
    auto got = recv.pe(e);
    const auto& want = expect[static_cast<std::size_t>(e)];
    ASSERT_GE(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_NEAR(got[i], want[i], 1e-3)
          << "expert " << e << " elem " << i << " (d_out=" << cfg.d_out
          << ")";
    }
  }
}

TEST(DispatchLayout, PadsSegmentsAndTracksRecvOffsets) {
  auto cfg = small_cfg(/*hot=*/6.0);
  const int pes = 4;
  const auto plans = skewed_plans(cfg, pes);
  const auto layout = DispatchLayout::build(plans, cfg.block_m);

  for (int src = 0; src < pes; ++src) {
    std::int64_t row = 0;
    for (int e = 0; e < pes; ++e) {
      EXPECT_EQ(layout.pad_off[static_cast<std::size_t>(src)]
                              [static_cast<std::size_t>(e)],
                row);
      EXPECT_EQ(layout.padded(src, e) % cfg.block_m, 0);
      EXPECT_GE(layout.padded(src, e),
                layout.counts[static_cast<std::size_t>(src)]
                             [static_cast<std::size_t>(e)]);
      EXPECT_LT(layout.padded(src, e) -
                    layout.counts[static_cast<std::size_t>(src)]
                                 [static_cast<std::size_t>(e)],
                cfg.block_m);
      row += layout.padded(src, e);
    }
    EXPECT_EQ(layout.padded_rows[static_cast<std::size_t>(src)], row);
    EXPECT_EQ(row % cfg.block_m, 0);
    // Every padded row maps back to the expert whose segment holds it.
    for (std::int64_t r = 0; r < row; r += cfg.block_m) {
      const int e = layout.owner_of_row(src, r);
      EXPECT_GE(r, layout.pad_off[static_cast<std::size_t>(src)]
                                 [static_cast<std::size_t>(e)]);
      EXPECT_LT(r, layout.pad_off[static_cast<std::size_t>(src)]
                                 [static_cast<std::size_t>(e)] +
                       layout.padded(src, e));
    }
  }
  // Recv offsets are prefix sums of per-source counts, matching
  // all_to_all_v's source-major recv layout.
  for (int e = 0; e < pes; ++e) {
    std::int64_t off = 0;
    for (int src = 0; src < pes; ++src) {
      EXPECT_EQ(layout.recv_off[static_cast<std::size_t>(e)]
                               [static_cast<std::size_t>(src)],
                off);
      off += layout.counts[static_cast<std::size_t>(src)]
                          [static_cast<std::size_t>(e)];
    }
    EXPECT_EQ(layout.recv_rows[static_cast<std::size_t>(e)], off);
  }
  // Element counts (the baseline's all_to_all_v matrix): total ==
  // sources * assignments * d_out.
  const auto counts = ops::a2av_counts(plans, pes, cfg.d_out);
  const auto total =
      std::accumulate(counts.begin(), counts.end(), std::int64_t{0});
  EXPECT_EQ(total, pes * cfg.assignments() * cfg.d_out);
}

// GEMM + All-to-All's layout: every source sends each expert R rows, so
// padded row r of any source belongs to expert r / R and each PE receives
// N * R rows, source-major.
TEST(DispatchLayout, UniformCountsGiveEachOriginItsRowBlock) {
  const int pes = 4, rows = 8, block_m = 4;
  const auto layout = DispatchLayout::build(
      pes, std::vector<std::int64_t>(pes * pes, rows), block_m);
  for (int src = 0; src < pes; ++src) {
    EXPECT_EQ(layout.padded_rows[static_cast<std::size_t>(src)], pes * rows);
    EXPECT_EQ(layout.sent_rows[static_cast<std::size_t>(src)], pes * rows);
    for (std::int64_t r = 0; r < pes * rows; ++r) {
      EXPECT_EQ(layout.owner_of_row(src, r), r / rows) << "row " << r;
    }
    for (int e = 0; e < pes; ++e) {
      EXPECT_EQ(layout.recv_off[static_cast<std::size_t>(e)]
                               [static_cast<std::size_t>(src)],
                src * rows);
    }
  }
  for (std::int64_t got : layout.recv_rows) EXPECT_EQ(got, pes * rows);
  EXPECT_EQ(layout.recv_capacity(/*d_out=*/12),
            static_cast<std::size_t>(pes * rows * 12));
}

TEST(DispatchLayout, SkewedPlansConcentrateLoadOnHotExpert) {
  auto cfg = small_cfg();
  cfg.tokens_per_pe = 512;
  cfg.hot_expert_factor = 8.0;
  const int pes = 4;
  const auto plans = skewed_plans(cfg, pes);
  std::vector<std::int64_t> per_expert(static_cast<std::size_t>(pes), 0);
  for (const auto& p : plans) {
    const auto sum =
        std::accumulate(p.counts.begin(), p.counts.end(), std::int64_t{0});
    EXPECT_EQ(sum, cfg.assignments());
    EXPECT_EQ(p.order.size(), static_cast<std::size_t>(cfg.assignments()));
    for (int e = 0; e < pes; ++e) {
      per_expert[static_cast<std::size_t>(e)] +=
          p.counts[static_cast<std::size_t>(e)];
    }
  }
  // The hot expert must carry visibly more than every cold one.
  for (int e = 1; e < pes; ++e) {
    EXPECT_GT(per_expert[0], 2 * per_expert[static_cast<std::size_t>(e)]);
  }
}

/// FNV-1a over every plan's counts, offsets and token order.
std::uint64_t plans_fingerprint(const std::vector<ops::DispatchPlan>& plans) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::int64_t v) {
    h = (h ^ static_cast<std::uint64_t>(v)) * 0x100000001b3ULL;
  };
  for (const auto& p : plans) {
    for (std::int64_t c : p.counts) mix(c);
    for (std::int64_t o : p.offsets) mix(o);
    for (int t : p.order) mix(t);
  }
  return h;
}

TEST(DispatchLayout, SkewedPlansMatchPinnedFingerprints) {
  // The synthetic routing feeds every MoE figure, so its exact draws are
  // pinned: a change to the sampling or bucketing order shows up here
  // rather than as a moved sim_us.
  struct Row {
    int pes, tokens, top_k;
    double hot;
    std::uint64_t seed, hash;
  };
  const Row rows[] = {
      {1, 1, 1, 1.0, 1234, 15034026112158478604ULL},
      {1, 64, 1, 8.0, 7, 4014028848190360301ULL},
      {2, 7, 1, 2.5, 1234, 12195857766703515154ULL},
      {2, 1024, 2, 8.0, 1234, 12071951774753475013ULL},
      {3, 33, 2, 1.0, 7, 1762342680048517017ULL},
      {4, 24, 2, 4.0, 1234, 16119046804554676844ULL},
      {4, 1024, 2, 8.0, 1234, 9497785498720819129ULL},
      {4, 512, 4, 2.5, 99, 5173474810409880997ULL},
      {8, 100, 3, 1.0, 1234, 6233816582146000704ULL},
      {8, 1024, 2, 4.0, 7, 11719706554990540869ULL},
      {16, 257, 4, 8.0, 1234, 13005002863096582657ULL},
      {16, 1024, 1, 2.5, 99, 17668808869959577721ULL},
      // Hot factors with no short binary expansion, where subtracting the
      // hot weight from a draw rounds.
      {8, 128, 2, 1.3, 5, 11986569328996515419ULL},
      {5, 300, 3, 3.7, 42, 16453054262689366432ULL},
  };
  for (const Row& r : rows) {
    MoeDispatchConfig cfg;
    cfg.tokens_per_pe = r.tokens;
    cfg.top_k = r.top_k;
    cfg.hot_expert_factor = r.hot;
    cfg.routing_seed = r.seed;
    EXPECT_EQ(plans_fingerprint(skewed_plans(cfg, r.pes)), r.hash)
        << "pes " << r.pes << " tokens " << r.tokens << " top_k " << r.top_k
        << " hot " << r.hot << " seed " << r.seed;
  }
}

TEST(FusedMoeDispatch, MatchesReferenceUnderSkew) {
  const int pes = 4;
  const auto cfg = small_cfg();
  const auto plans = skewed_plans(cfg, pes);
  const auto layout = DispatchLayout::build(plans, cfg.block_m);

  gpu::Machine m(scale_up(pes));
  shmem::World w(m);
  shmem::SymArray<float> recv(pes, layout.recv_capacity(cfg.d_out));
  auto data = MoeDispatchData::random(cfg, pes, &recv, /*seed=*/91);
  const auto expect = reference_recv(cfg, plans, data, layout);

  FusedMoeDispatch op(w, cfg, &data);
  const auto res = op.run_to_completion();
  EXPECT_GT(res.duration(), 0);
  expect_recv_matches(cfg, layout, recv, expect);
}

TEST(BaselineMoeDispatch, MatchesReferenceUnderSkew) {
  const int pes = 4;
  const auto cfg = small_cfg();
  const auto plans = skewed_plans(cfg, pes);
  const auto layout = DispatchLayout::build(plans, cfg.block_m);

  gpu::Machine m(scale_up(pes));
  shmem::World w(m);
  shmem::SymArray<float> recv(pes, layout.recv_capacity(cfg.d_out));
  auto data = MoeDispatchData::random(cfg, pes, &recv, /*seed=*/93);
  const auto expect = reference_recv(cfg, plans, data, layout);

  BaselineMoeDispatch op(w, cfg, &data);
  op.run_to_completion();
  expect_recv_matches(cfg, layout, recv, expect);
}

// The acceptance property: fused and baseline agree elementwise across a
// hot-expert sweep that includes the >= 4x factor.
TEST(FusedMoeDispatch, FusedEqualsBaselineAcrossSkewSweep) {
  const int pes = 4;
  for (double hot : {1.0, 4.0, 9.0}) {
    const auto cfg = small_cfg(hot);
    const auto plans = skewed_plans(cfg, pes);
    const auto layout = DispatchLayout::build(plans, cfg.block_m);

    gpu::Machine mf(scale_up(pes));
    shmem::World wf(mf);
    shmem::SymArray<float> rf(pes, layout.recv_capacity(cfg.d_out));
    auto df = MoeDispatchData::random(cfg, pes, &rf, /*seed=*/97);
    FusedMoeDispatch(wf, cfg, &df).run_to_completion();

    gpu::Machine mb(scale_up(pes));
    shmem::World wb(mb);
    shmem::SymArray<float> rb(pes, layout.recv_capacity(cfg.d_out));
    auto db = MoeDispatchData::random(cfg, pes, &rb, /*seed=*/97);
    BaselineMoeDispatch(wb, cfg, &db).run_to_completion();

    for (int e = 0; e < pes; ++e) {
      auto a = rf.pe(e);
      auto b = rb.pe(e);
      const std::size_t real =
          static_cast<std::size_t>(
              layout.recv_rows[static_cast<std::size_t>(e)]) *
          static_cast<std::size_t>(cfg.d_out);
      for (std::size_t i = 0; i < real; ++i) {
        ASSERT_NEAR(a[i], b[i], 1e-3) << "hot=" << hot << " expert=" << e;
      }
    }
  }
}

// Empty segments: a cold expert that receives nothing at all, and a source
// that sends nothing to some experts, must neither deadlock the arrival
// polling nor corrupt neighbours' offsets.
TEST(FusedMoeDispatch, EmptySegmentsNeitherDeadlockNorCorrupt) {
  const int pes = 4;
  auto cfg = small_cfg();
  cfg.tokens_per_pe = 12;
  cfg.top_k = 1;

  // Hand-built plans: every source routes all tokens to expert (src % 2),
  // so experts 2 and 3 receive zero rows from everyone.
  std::vector<ops::DispatchPlan> plans;
  for (int src = 0; src < pes; ++src) {
    ops::DispatchPlan p;
    p.counts.assign(static_cast<std::size_t>(pes), 0);
    p.offsets.assign(static_cast<std::size_t>(pes), 0);
    const int dst = src % 2;
    p.counts[static_cast<std::size_t>(dst)] = cfg.tokens_per_pe;
    for (int e = dst + 1; e < pes; ++e) {
      p.offsets[static_cast<std::size_t>(e)] = cfg.tokens_per_pe;
    }
    for (int t = 0; t < cfg.tokens_per_pe; ++t) p.order.push_back(t);
    plans.push_back(std::move(p));
  }
  const auto layout = DispatchLayout::build(plans, cfg.block_m);
  EXPECT_EQ(layout.recv_rows[2], 0);
  EXPECT_EQ(layout.recv_rows[3], 0);

  gpu::Machine m(scale_up(pes));
  shmem::World w(m);
  shmem::SymArray<float> recv(pes, layout.recv_capacity(cfg.d_out));
  auto data = MoeDispatchData::random(cfg, pes, &recv, /*seed=*/101);
  data.plans = plans;  // override the synthetic routing
  const auto expect = reference_recv(cfg, plans, data, layout);

  FusedMoeDispatch op(w, cfg, &data);
  const auto res = op.run_to_completion();
  EXPECT_GT(res.duration(), 0);
  expect_recv_matches(cfg, layout, recv, expect);
}

// Regression: with a 1-slot grid (occupancy override below num_pes) the
// surplus slots never run a flag wait, so the single spawned slot must
// stride over every source's arrival counter — previously sources >= the
// slot count were silently dropped.
TEST(FusedMoeDispatch, SingleSlotGridStillDrainsEverySourcesArrivals) {
  const int pes = 4;
  auto cfg = small_cfg();
  cfg.occupancy_slots_override = 1;
  const auto plans = skewed_plans(cfg, pes);
  const auto layout = DispatchLayout::build(plans, cfg.block_m);

  gpu::Machine m(scale_up(pes));
  shmem::World w(m);
  shmem::SymArray<float> recv(pes, layout.recv_capacity(cfg.d_out));
  auto data = MoeDispatchData::random(cfg, pes, &recv, /*seed=*/103);
  const auto expect = reference_recv(cfg, plans, data, layout);

  FusedMoeDispatch op(w, cfg, &data);
  const auto res = op.run_to_completion();
  EXPECT_GT(res.duration(), 0);
  expect_recv_matches(cfg, layout, recv, expect);
}

// Inconsistent user-supplied plans (built from a different batch size than
// the config) must be rejected up front, not written out of bounds.
TEST(FusedMoeDispatch, RejectsPlansInconsistentWithConfig) {
  const int pes = 4;
  auto cfg = small_cfg();
  cfg.functional = false;  // isolate plan validation from data checks
  gpu::Machine m(scale_up(pes));
  shmem::World w(m);

  auto bigger = cfg;
  bigger.tokens_per_pe = cfg.tokens_per_pe * 2;
  MoeDispatchData data;
  data.plans = skewed_plans(bigger, pes);  // 2x the rows the config sizes
  EXPECT_THROW(FusedMoeDispatch(w, cfg, &data), std::logic_error);
  EXPECT_THROW(BaselineMoeDispatch(w, cfg, &data), std::logic_error);

  // Out-of-range token id with otherwise-consistent counts/offsets.
  MoeDispatchData bad;
  bad.plans = skewed_plans(cfg, pes);
  bad.plans[0].order[0] = cfg.tokens_per_pe;
  EXPECT_THROW(FusedMoeDispatch(w, cfg, &bad), std::logic_error);
}

// Each of these used to pass construction and then die mid-run: a shape
// check throwing inside the kernel's coroutine (SIGABRT) or a division by
// a zero block size (SIGFPE). A negative slot override was read as
// "derive".
void expect_moe_rejects(void (*set)(MoeDispatchConfig&, int),
                        const char* field, int value) {
  gpu::Machine m(scale_up(4));
  shmem::World w(m);
  auto cfg = small_cfg();
  cfg.functional = false;
  set(cfg, value);
  test::expect_both_reject<FusedMoeDispatch, BaselineMoeDispatch>(
      w, cfg, field, value);
}

TEST(MoeDispatchConfig, RejectsNonPositiveDModel) {
  expect_moe_rejects([](MoeDispatchConfig& c, int v) { c.d_model = v; },
                     "MoeDispatchConfig::d_model", 0);
}

TEST(MoeDispatchConfig, RejectsNonPositiveDOut) {
  expect_moe_rejects([](MoeDispatchConfig& c, int v) { c.d_out = v; },
                     "MoeDispatchConfig::d_out", 0);
}

TEST(MoeDispatchConfig, RejectsNonPositiveBlockM) {
  expect_moe_rejects([](MoeDispatchConfig& c, int v) { c.block_m = v; },
                     "MoeDispatchConfig::block_m", 0);
}

TEST(MoeDispatchConfig, RejectsNonPositiveBlockN) {
  expect_moe_rejects([](MoeDispatchConfig& c, int v) { c.block_n = v; },
                     "MoeDispatchConfig::block_n", 0);
}

TEST(MoeDispatchConfig, RejectsNegativeSlotsOverride) {
  expect_moe_rejects(
      [](MoeDispatchConfig& c, int v) { c.occupancy_slots_override = v; },
      "MoeDispatchConfig::occupancy_slots_override", -3);
}

TEST(MoeDispatchConfig, RejectsNonPositiveTokensPerPe) {
  expect_moe_rejects([](MoeDispatchConfig& c, int v) { c.tokens_per_pe = v; },
                     "MoeDispatchConfig::tokens_per_pe", 0);
}

TEST(MoeDispatchConfig, RejectsZeroTopK) {
  expect_moe_rejects([](MoeDispatchConfig& c, int v) { c.top_k = v; },
                     "MoeDispatchConfig::top_k", 0);
}

TEST(MoeDispatchConfig, RejectsTopKAboveTheExpertCount) {
  expect_moe_rejects([](MoeDispatchConfig& c, int v) { c.top_k = v; },
                     "MoeDispatchConfig::top_k", 5);  // 4 PEs, 4 experts
}

// The skew knob is read where the synthetic plans are drawn, so both
// backends reject it there when they synthesize their routing.
TEST(MoeDispatchConfig, RejectsHotExpertFactorBelowOne) {
  gpu::Machine m(scale_up(4));
  shmem::World w(m);
  auto cfg = small_cfg();
  cfg.functional = false;
  cfg.hot_expert_factor = 0.5;
  const auto expect_named = [](auto construct) {
    try {
      construct();
      ADD_FAILURE() << "accepted hot_expert_factor = 0.5";
    } catch (const std::logic_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("MoeDispatchConfig::hot_expert_factor"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("got 0.5"), std::string::npos) << what;
    }
  };
  expect_named([&] { FusedMoeDispatch op(w, cfg, nullptr); });
  expect_named([&] { BaselineMoeDispatch op(w, cfg, nullptr); });
  expect_named([&] { skewed_plans(cfg, 4); });
}

MoeDispatchConfig timing_cfg(double hot) {
  MoeDispatchConfig cfg;
  cfg.tokens_per_pe = 1024;
  cfg.d_model = 1024;
  cfg.d_out = 1024;
  cfg.hot_expert_factor = hot;
  cfg.functional = false;
  return cfg;
}

TEST(FusedMoeDispatch, FusedIsFasterThanBaselineUnderHeavySkew) {
  for (double hot : {1.0, 4.0, 8.0}) {
    const auto cfg = timing_cfg(hot);
    gpu::Machine mf(scale_up(4));
    shmem::World wf(mf);
    const auto rf = FusedMoeDispatch(wf, cfg, nullptr).run_to_completion();

    gpu::Machine mb(scale_up(4));
    shmem::World wb(mb);
    const auto rb = BaselineMoeDispatch(wb, cfg, nullptr).run_to_completion();

    EXPECT_LT(rf.duration(), rb.duration()) << "hot=" << hot;
  }
}

TEST(FusedMoeDispatch, DeterministicAcrossRuns) {
  const auto cfg = timing_cfg(4.0);
  auto once = [&] {
    gpu::Machine m(scale_up(4));
    shmem::World w(m);
    return FusedMoeDispatch(w, cfg, nullptr).run_to_completion().duration();
  };
  EXPECT_EQ(once(), once());
}

// The PR 1 extension-point claim, validated end-to-end: the operator went
// in through its own TU's OpRegistrar — framework/session.* untouched —
// and dispatches by name like any built-in.
TEST(FusedMoeDispatch, DispatchesViaRegistryWithoutFrameworkEdits) {
  ASSERT_TRUE(fw::OpRegistry::global().contains("fcc::moe_dispatch"));
  const auto& entry = fw::OpRegistry::global().at("fcc::moe_dispatch");
  ASSERT_TRUE(entry.smoke_spec != nullptr);

  auto cfg = timing_cfg(4.0);
  cfg.tokens_per_pe = 256;
  cfg.d_model = 256;
  cfg.d_out = 256;

  fw::Session s(fw::smoke_machine_config());
  const auto rf =
      s.run(fw::make_spec("fcc::moe_dispatch", cfg), fw::Backend::kFused);
  const auto rb =
      s.run(fw::make_spec("fcc::moe_dispatch", cfg), fw::Backend::kBaseline);
  EXPECT_GT(rf.duration(), 0);
  EXPECT_GT(rb.duration(), 0);
  EXPECT_EQ(rf.pe_end.size(), static_cast<std::size_t>(fw::kSmokePes));
}

}  // namespace
}  // namespace fcc::fused
