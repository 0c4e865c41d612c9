// Occupancy calculator: slot limits, register pressure, shmem cost.
#include <gtest/gtest.h>

#include "gpu/occupancy.h"

namespace fcc::gpu {
namespace {

hw::GpuSpec mi210() { return hw::GpuSpec{}; }

TEST(Occupancy, SlotLimitedKernelReachesMax) {
  KernelResources r;
  r.threads_per_wg = 256;
  r.vgprs_per_thread = 64;  // light kernel: register limit above slot limit
  EXPECT_EQ(wgs_per_cu(mi210(), r), 8);
  EXPECT_EQ(max_active_wgs(mi210(), r), 832);
  EXPECT_EQ(max_active_wgs(mi210(), r), mi210().max_wg_slots());
}

TEST(Occupancy, RegisterLimitedKernel) {
  KernelResources r;
  r.threads_per_wg = 256;
  r.vgprs_per_thread = 256;  // 256*256 = 65536 VGPRs per WG -> 4 per CU
  EXPECT_EQ(wgs_per_cu(mi210(), r), 4);
}

TEST(Occupancy, ShmemContextCostsOneWgPerCu) {
  // The paper's fused kernels lose 12.5% occupancy to ROC_SHMEM registers:
  // baseline 128 VGPR/thread kernel sits exactly at 8 WGs/CU; adding the
  // context drops it to 7.
  KernelResources base;
  base.threads_per_wg = 256;
  base.vgprs_per_thread = 128;
  EXPECT_EQ(wgs_per_cu(mi210(), base), 8);

  KernelResources fused = base;
  fused.vgprs_per_thread += kShmemCtxVgprsPerThread;
  EXPECT_EQ(wgs_per_cu(mi210(), fused), 7);
  // 7 of 8 slots per CU: 87.5% of the device's WG slots.
  EXPECT_EQ(8 * max_active_wgs(mi210(), fused), 7 * mi210().max_wg_slots());
}

TEST(Occupancy, LdsLimit) {
  KernelResources r;
  r.threads_per_wg = 256;
  r.vgprs_per_thread = 64;
  r.lds_bytes_per_wg = 32 * 1024;  // 64 KB per CU -> 2 WGs
  EXPECT_EQ(wgs_per_cu(mi210(), r), 2);
}

TEST(Occupancy, HugeKernelGetsZero) {
  KernelResources r;
  r.threads_per_wg = 1024;
  r.vgprs_per_thread = 512;
  EXPECT_EQ(wgs_per_cu(mi210(), r), 0);
}

}  // namespace
}  // namespace fcc::gpu
