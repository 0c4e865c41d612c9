// Fig. 10: fused GEMM + All-to-All (MoE combine, DSL-authored) vs the
// bulk-synchronous baseline across common MoE layer shapes.
//
// Paper result: 12% mean reduction, up to 20%; the generic Triton GEMM
// dominates and bounds the benefit.
#include "bench_common.h"
#include "fused/gemm_a2a.h"
#include "shmem/world.h"
#include "sweep_runner.h"

namespace {

using namespace fcc;

TimeNs run(int rows_per_origin, int d_model, int d_ff, bool fused_path) {
  fused::GemmA2AConfig cfg;
  cfg.rows_per_origin = rows_per_origin;
  cfg.d_model = d_model;
  cfg.d_ff = d_ff;
  cfg.functional = false;
  gpu::Machine::Config mc;
  mc.num_nodes = 1;
  mc.gpus_per_node = 4;
  gpu::Machine machine(mc);
  shmem::World w(machine);
  if (fused_path) {
    return fused::FusedGemmAllToAll(w, cfg, nullptr)
        .run_to_completion()
        .duration();
  }
  return fused::BaselineGemmAllToAll(w, cfg, nullptr)
      .run_to_completion()
      .duration();
}

}  // namespace

int main() {
  // {tokens per origin, d_model, d_ff}: expert second-FFN GEMM shapes.
  const int sweep[][3] = {{1024, 1024, 1024},
                          {1024, 2048, 1024},
                          {2048, 1024, 2048},
                          {2048, 2048, 1024},
                          {4096, 2048, 2048}};
  const auto rows = fccbench::run_sweep<fccbench::NormRow>(5, [&](int i) {
    const auto& [r_, dm, dff] = sweep[i];
    fccbench::NormRow row;
    row.label = "T=" + std::to_string(r_) + " dM=" + std::to_string(dm) +
                " dF=" + std::to_string(dff);
    row.baseline = run(r_, dm, dff, false);
    row.fused = run(r_, dm, dff, true);
    return row;
  });
  fccbench::print_normalized(
      "Fig. 10 — fused GEMM+All-to-All (MoE combine, 4 experts, Triton-DSL)\n"
      "paper: mean -12%, max -20% (GEMM-dominated)",
      rows, "fig10_gemm_alltoall.csv");
  return 0;
}
