// Fused MoE dispatch (routed All-to-All-v) vs the bulk-synchronous
// GEMM + all_to_all_v baseline, swept over expert-load skew.
//
// The paper's GEMM+All-to-All prototype (Fig. 10) assumes equal expert
// load; this bench covers the irregular case its Sec. III-B motivates:
// top-2 routing with a hot expert drawing `skew`x the traffic of a cold
// one. The fused path overlaps each finished tile's remote PUT with the
// remaining GEMM, so the hot expert's extra traffic hides behind compute;
// the baseline pays the slowest source's full GEMM before the first byte
// of the uneven collective moves.
#include "bench_common.h"
#include "fused/moe_dispatch.h"
#include "shmem/world.h"
#include "sweep_runner.h"

namespace {

using namespace fcc;

TimeNs run(int tokens, int d_model, int d_out, double hot, bool fused_path) {
  fused::MoeDispatchConfig cfg;
  cfg.tokens_per_pe = tokens;
  cfg.d_model = d_model;
  cfg.d_out = d_out;
  cfg.hot_expert_factor = hot;
  cfg.functional = false;
  gpu::Machine::Config mc;
  mc.num_nodes = 1;
  mc.gpus_per_node = 4;
  gpu::Machine machine(mc);
  shmem::World w(machine);
  if (fused_path) {
    return fused::FusedMoeDispatch(w, cfg, nullptr)
        .run_to_completion()
        .duration();
  }
  return fused::BaselineMoeDispatch(w, cfg, nullptr)
      .run_to_completion()
      .duration();
}

}  // namespace

int main() {
  // Skew sweep at a fixed MoE layer shape (tokens, d_model, d_out), then a
  // shape sweep at the acceptance skew of 4x.
  const double skews[] = {1.0, 2.0, 4.0, 8.0, 16.0};
  const int shapes[][3] = {{512, 1024, 1024},
                           {2048, 1024, 1024},
                           {2048, 2048, 1024},
                           {4096, 2048, 2048}};
  const auto rows = fccbench::run_sweep<fccbench::NormRow>(9, [&](int i) {
    fccbench::NormRow row;
    if (i < 5) {
      const double hot = skews[i];
      row.label = "T=1024 dM=1024 dO=1024 skew=" +
                  fcc::AsciiTable::fmt(hot, 0) + "x";
      row.baseline = run(1024, 1024, 1024, hot, false);
      row.fused = run(1024, 1024, 1024, hot, true);
    } else {
      const auto& [t, dm, dout] = shapes[i - 5];
      row.label = "T=" + std::to_string(t) + " dM=" + std::to_string(dm) +
                  " dO=" + std::to_string(dout) + " skew=4x";
      row.baseline = run(t, dm, dout, 4.0, false);
      row.fused = run(t, dm, dout, 4.0, true);
    }
    return row;
  });
  fccbench::print_normalized(
      "MoE dispatch — fused routed All-to-All-v vs GEMM + all_to_all_v "
      "(4 experts, top-2)\n"
      "hot-expert skew sweep: fused hides the hot expert's extra traffic "
      "behind compute",
      rows, "moe_dispatch_skew.csv");
  return 0;
}
