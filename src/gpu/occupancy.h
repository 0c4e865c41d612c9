// Occupancy calculator (HIP occupancy-API analog).
//
// Active workgroups per CU are bounded by hardware WG slots and by register
// pressure. ROC_SHMEM contexts cost extra VGPRs, which is how the fused
// kernels end up at 87.5% of baseline occupancy (7 vs 8 WGs/CU), exactly
// the 12.5% loss the paper reports.
#pragma once

#include <algorithm>

#include "common/check.h"
#include "hw/gpu_spec.h"

namespace fcc::gpu {

struct KernelResources {
  int threads_per_wg = 256;
  int vgprs_per_thread = 128;
  int lds_bytes_per_wg = 0;  // 64 KB per CU when nonzero
};

/// Extra registers a WG-level ROC_SHMEM context consumes per thread.
inline constexpr int kShmemCtxVgprsPerThread = 16;

inline int wgs_per_cu(const hw::GpuSpec& spec, const KernelResources& r) {
  FCC_CHECK(r.threads_per_wg > 0);
  FCC_CHECK(r.vgprs_per_thread > 0);
  int limit = spec.max_wgs_per_cu;
  const int by_regs = spec.vgprs_per_cu / (r.vgprs_per_thread * r.threads_per_wg);
  limit = std::min(limit, by_regs);
  if (r.lds_bytes_per_wg > 0) {
    constexpr int kLdsPerCu = 64 * 1024;
    limit = std::min(limit, kLdsPerCu / r.lds_bytes_per_wg);
  }
  return std::max(0, limit);
}

/// Maximum concurrently active WGs on the whole device (grid-independent),
/// i.e. the persistent-kernel launch size the paper derives from the HIP
/// occupancy API.
inline int max_active_wgs(const hw::GpuSpec& spec, const KernelResources& r) {
  return wgs_per_cu(spec, r) * spec.num_cus;
}

}  // namespace fcc::gpu
