// Logical-workgroup execution order.
//
// The paper's communication-aware scheduling runs logical WGs that produce
// remotely-consumed slices *before* those producing locally-consumed ones,
// maximizing the window in which remote transfers overlap local compute
// (Figs. 6b / 14). The oblivious baseline starts from WG (0,0,0) and
// proceeds sequentially; only the fused embedding+A2A offers it
// (EmbeddingA2AConfig::policy, Fig. 14).
//
// make_schedule keeps each class in sequential order. The tile-DSL ops
// (TileKernel caches one per PE on its first launch) and the fused
// GEMV+AllReduce (per slot, over its statically assigned tiles, built on
// its first run) run it; gpu::KernelRun hands out positions into these
// orders. The fused embedding+A2A does not: its WGs are sample-major, so
// this order would send every PE to destination 0, then 1, ... at the same
// time. It staggers whole destination blocks instead
// (fused::SliceMap::comm_aware_blocks: inter-node blocks in the topology's
// shift order, then intra-node ones starting at self + 1, own block last),
// which took the 8x8 torus flagship from 37236 to 9845 sim_us with the ring
// shift, to 7462 with uniform 2D shifts and to 3874 with the torus's
// checkerboard-mirrored shifts (fused/baseline 3.345 -> 0.884 -> 0.670 ->
// 0.348).
// The same rotation made the other ops slower (paper_ops sim_us +0.12%,
// plan_grid +1.6%).
#pragma once

#include <functional>
#include <vector>

namespace fcc::gpu {

enum class SchedulePolicy {
  kOblivious,  // sequential logical-WG order
  kCommAware,  // remote-slice producers first
};

/// Communication-aware execution order of `n` logical WGs: those whose
/// output leaves this GPU (`is_remote(lw)`) first, stable within each
/// class.
std::vector<int> make_schedule(int n,
                               const std::function<bool(int)>& is_remote);

}  // namespace fcc::gpu
