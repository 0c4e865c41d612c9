// MoE expert layer, shown through both of the paper's integration paths:
//
//  1. (default) A user-authored fused GEMM + All-to-All combine kernel,
//     written directly in the Triton-analog tile DSL with its communication
//     extensions — exactly how the paper built its GEMM+All-to-All
//     prototype.
//  2. (--framework) The prebuilt framework operator: `fw::Session`
//     dispatches `fcc::moe_dispatch` — the routed, variable-size dispatch
//     All-to-All-v with a 4x hot expert — by registry name, fused and
//     baseline backends, and cross-checks their outputs.
//
// Run with no arguments for both, or `--dsl-only` / `--framework` to pick.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>

#include "common/rng.h"
#include "common/table.h"
#include "framework/session.h"
#include "fused/moe_dispatch.h"
#include "gpu/machine.h"
#include "ops/gemv.h"
#include "shmem/flags.h"
#include "shmem/world.h"
#include "sim/task.h"
#include "triton/tile_lang.h"

namespace {

using namespace fcc;

constexpr int kExperts = 4;       // one per GPU
constexpr int kRowsPerOrigin = 256;
constexpr int kDModel = 512;
constexpr int kDff = 1024;

sim::Task run_kernel(sim::Engine&, triton::TileKernel& k,
                     const triton::TileKernel::LaunchConfig& lc, bool& done) {
  co_await k.launch(lc);
  done = true;
}

// Framework path: dispatch the registered MoE dispatch operator through the
// Session, fused and baseline, and verify they agree elementwise.
int run_framework_path() {
  fused::MoeDispatchConfig cfg;
  cfg.tokens_per_pe = 64;
  cfg.d_model = 64;
  cfg.d_out = 64;
  cfg.block_m = 16;
  cfg.block_n = 32;
  cfg.hot_expert_factor = 4.0;
  cfg.functional = true;

  const auto plans = fused::skewed_plans(cfg, kExperts);
  const auto layout = fused::DispatchLayout::build(plans, cfg.block_m);

  gpu::Machine::Config mc;
  mc.num_nodes = 1;
  mc.gpus_per_node = kExperts;

  auto run_backend = [&](fw::Backend backend, fused::OperatorResult& res) {
    fw::Session session(mc);
    auto recv = session.symmetric_empty(layout.recv_capacity(cfg.d_out));
    auto data =
        fused::MoeDispatchData::random(cfg, kExperts, recv.get(), /*seed=*/7);
    res = session.run(fw::make_spec("fcc::moe_dispatch", cfg, &data), backend);
    // Copy out the real rows for the cross-check.
    std::vector<std::vector<float>> out;
    for (int e = 0; e < kExperts; ++e) {
      auto span = recv->pe(e);
      const auto real =
          static_cast<size_t>(layout.recv_rows[static_cast<size_t>(e)]) *
          static_cast<size_t>(cfg.d_out);
      out.emplace_back(span.begin(), span.begin() + real);
    }
    return out;
  };

  fused::OperatorResult rf, rb;
  const auto fused_out = run_backend(fw::Backend::kFused, rf);
  const auto baseline_out = run_backend(fw::Backend::kBaseline, rb);

  bool match = true;
  for (int e = 0; e < kExperts && match; ++e) {
    const auto& a = fused_out[static_cast<size_t>(e)];
    const auto& b = baseline_out[static_cast<size_t>(e)];
    for (size_t i = 0; i < a.size(); ++i) {
      if (std::abs(a[i] - b[i]) > 1e-3f) {
        match = false;
        break;
      }
    }
  }

  std::printf("MoE dispatch via fw::Session (registry op fcc::moe_dispatch, "
              "4x hot expert)\n");
  std::printf("  hot expert rows: %lld of %lld total (top-2 routing)\n",
              static_cast<long long>(layout.recv_rows[0]),
              static_cast<long long>(kExperts * cfg.assignments()));
  std::printf("  fused:    %.1f us\n", ns_to_us(rf.duration()));
  std::printf("  baseline: %.1f us\n", ns_to_us(rb.duration()));
  std::printf("  outputs %s\n", match ? "match" : "MISMATCH");
  return match ? 0 : 1;
}

int run_dsl_path() {
  gpu::Machine::Config mc;
  mc.num_nodes = 1;
  mc.gpus_per_node = kExperts;
  gpu::Machine machine(mc);
  shmem::World world(machine);

  ops::GemmShape shape;
  shape.m = kExperts * kRowsPerOrigin;  // rows grouped by origin GPU
  shape.n = kDModel;
  shape.k = kDff;

  // Expert 0's activations/weights (functional run on one expert, timing
  // would launch on all four — see bench_fig10 for the full sweep).
  Rng rng(77);
  auto a = ops::random_vector(
      static_cast<size_t>(shape.m) * static_cast<size_t>(shape.k), rng);
  auto b = ops::random_vector(
      static_cast<size_t>(shape.k) * static_cast<size_t>(shape.n), rng);
  std::vector<std::vector<float>> received(
      kExperts, std::vector<float>(static_cast<size_t>(kRowsPerOrigin) *
                                       static_cast<size_t>(kDModel),
                                   0.0f));
  shmem::FlagArray arrivals(machine.engine(), kExperts, 1);

  // ---- the fused kernel, authored in the DSL ----
  triton::TileKernel kernel("moe_combine", shape,
                            ops::kTritonGemmEfficiency);
  auto origin_of = [](const triton::TileKernel::Ctx& ctx) {
    return ctx.shape->row_begin(ctx.pid) / kRowsPerOrigin;
  };
  kernel.load_a().load_b().dot();
  kernel.put_c_remote(
      origin_of,
      [&received](const triton::TileKernel::Ctx& ctx,
                  const std::vector<float>& tile) {
        const auto& sh = *ctx.shape;
        const PeId origin = sh.row_begin(ctx.pid) / kRowsPerOrigin;
        const int cols = sh.col_end(ctx.pid) - sh.col_begin(ctx.pid);
        auto& out = received[static_cast<size_t>(origin)];
        for (int r = sh.row_begin(ctx.pid); r < sh.row_end(ctx.pid); ++r) {
          const int lr = r - origin * kRowsPerOrigin;
          for (int j = 0; j < cols; ++j) {
            out[static_cast<size_t>(lr) * kDModel +
                static_cast<size_t>(sh.col_begin(ctx.pid) + j)] =
                tile[static_cast<size_t>(r - sh.row_begin(ctx.pid)) * cols +
                     static_cast<size_t>(j)];
          }
        }
      });
  kernel.fence();
  kernel.atomic_add_remote(&arrivals, origin_of,
                           [](const triton::TileKernel::Ctx&) { return 0u; });

  triton::TileKernel::LaunchConfig lc;
  lc.world = &world;
  lc.pe = 0;
  lc.functional = true;
  lc.a = a;
  lc.b = b;

  bool done = false;
  run_kernel(machine.engine(), kernel, lc, done);
  machine.engine().run();

  // Spot-check one returned row against the reference GEMM.
  const auto ref = ops::gemm_reference(shape, a, b);
  const int check_origin = 2, check_row = 5, check_col = 17;
  const float got = received[check_origin]
                            [static_cast<size_t>(check_row) * kDModel +
                             check_col];
  const float want =
      ref[static_cast<size_t>(check_origin * kRowsPerOrigin + check_row) *
              kDModel +
          check_col];
  std::printf("MoE combine (DSL-authored fused GEMM+A2A), expert 0 of %d\n",
              kExperts);
  std::printf("  kernel finished at t = %.1f us (simulated)\n",
              ns_to_us(machine.engine().now()));
  std::printf("  tiles delivered to every origin, spot check: got %.4f, "
              "want %.4f (%s)\n",
              got, want, std::abs(got - want) < 1e-3 ? "OK" : "MISMATCH");
  std::printf("  fabric bytes moved: %lld\n",
              static_cast<long long>(machine.fabric(0).total_bytes()));
  return std::abs(got - want) < 1e-3 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool dsl = true, framework = true;
  if (argc > 1) {
    if (std::strcmp(argv[1], "--dsl-only") == 0) {
      framework = false;
    } else if (std::strcmp(argv[1], "--framework") == 0) {
      dsl = false;
    } else {
      std::fprintf(stderr, "usage: %s [--dsl-only|--framework]\n", argv[0]);
      return 2;
    }
  }
  int rc = 0;
  if (dsl) rc |= run_dsl_path();
  if (framework) rc |= run_framework_path();
  return rc;
}
