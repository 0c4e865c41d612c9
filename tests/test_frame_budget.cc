// Slot-frame budgets of the persistent-kernel operators.
//
// Every physical WG slot of a gpu::KernelRun is one coroutine frame that
// lives for the whole kernel, so its size sets the host memory of a large
// run (64 PEs x 624 slots on the Fig. 15 torus flagship). A launch places
// its slot frames back to back in one block (sim::FrameBlock), so the slot
// frame's cost is the block's per-slot stride. This binary replaces the
// global operator new with one that counts allocation sizes and runs each
// slot-body operator timing-only on a small machine, twice: with S and
// with S + 1 slots per kernel. The stride is the size b / (S + 1) for the
// first block size b made exactly once more per kernel in the second run
// whose S-slot block, S * b / (S + 1), the first run made once per kernel.
// Frames made once per slot outside the block (the fused GEMV's reduce
// frame, a nested sim::Co) are reported after it. A frame that grows past
// its budget fails here instead of showing up as peak RSS in the
// benchmark. One more test pins what else a warm run allocates per PE: no
// scheduled callback falls back to the heap.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <vector>

#include "counting_new.h"
#include "fused/embedding_a2a.h"
#include "fused/gemm_a2a.h"
#include "fused/gemv_allreduce.h"
#include "gpu/machine.h"
#include "shmem/world.h"
#include "sim/co.h"

namespace fcc {
namespace {

/// Allocation counts and first-allocation order by size, of one run.
struct Counts {
  std::vector<std::uint64_t> count;
  std::vector<std::uint64_t> first;
};

/// Runs `op` once unrecorded, so that one-time setup (duration tables,
/// orders, flag storage) stays out, then once recorded.
Counts record(fused::FusedOp& op) {
  op.run_to_completion();
  test::g_alloc.start();
  op.run_to_completion();
  test::g_alloc.stop();
  return {{test::g_alloc.count.begin(), test::g_alloc.count.end()},
          {test::g_alloc.first.begin(), test::g_alloc.first.end()}};
}

/// Sizes made exactly `times` times in `c`, in order of first appearance.
std::vector<std::size_t> made(const Counts& c, std::uint64_t times) {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n < c.count.size(); ++n) {
    if (c.count[n] == times) sizes.push_back(n);
  }
  std::sort(sizes.begin(), sizes.end(), [&c](std::size_t a, std::size_t b) {
    return c.first[a] < c.first[b];
  });
  return sizes;
}

/// No coroutine frame is smaller than its promise plus the resume and
/// destroy pointers; a smaller size made once per slot (the fused GEMV
/// has one) is other per-slot state.
constexpr std::size_t kMinFrame =
    sizeof(sim::Co::promise_type) + 2 * sizeof(void*);

/// The slot-frame stride of kernels launched with `slots` slots in `base`
/// and `slots + 1` in `more`, `kernels` launches each (see the header):
/// 0 if no block size matches.
std::size_t block_stride(const Counts& base, const Counts& more, int slots,
                         std::uint64_t kernels) {
  const auto s = static_cast<std::size_t>(slots);
  std::size_t stride = 0;
  std::uint64_t first = ~std::uint64_t{0};
  for (std::size_t b = kMinFrame * (s + 1); b < more.count.size();
       b += s + 1) {
    const std::size_t n = b / (s + 1);
    if (more.count[b] == base.count[b] + kernels &&
        base.count[n * s] >= kernels && more.first[b] < first) {
      stride = n;
      first = more.first[b];
    }
  }
  return stride;
}

/// Frame-sized sizes made exactly `kernels` more times in `more` (one more
/// slot per kernel) than in `base`, in order of first appearance in `more`:
/// per-slot frames outside the launch's block.
std::vector<std::size_t> per_slot(const Counts& base, const Counts& more,
                                  std::uint64_t kernels) {
  std::vector<std::size_t> sizes;
  for (std::size_t n = kMinFrame; n < base.count.size(); ++n) {
    if (more.count[n] == base.count[n] + kernels) sizes.push_back(n);
  }
  std::sort(sizes.begin(), sizes.end(), [&more](std::size_t a, std::size_t b) {
    return more.first[a] < more.first[b];
  });
  return sizes;
}

/// The slot frame's stride in the launch blocks of `base` (`slots` slots
/// per kernel) and `more` (one more). Prints it next to its budget, and
/// any size made once per slot outside the block.
std::size_t slot_frame(const char* what, const Counts& base,
                       const Counts& more, int slots, std::uint64_t kernels,
                       std::size_t budget) {
  const std::size_t stride = block_stride(base, more, slots, kernels);
  EXPECT_NE(stride, 0u) << what << ": no launch block with a slot stride";
  std::cout << what << " slot frame: " << stride << " B (budget " << budget
            << " B)\n";
  for (std::size_t n : per_slot(base, more, kernels)) {
    if (n == stride * static_cast<std::size_t>(slots + 1)) continue;
    std::cout << "  size made once per slot outside the block: " << n
              << " B\n";
  }
  return stride;
}

gpu::Machine::Config fc(int nodes, int gpus) {
  gpu::Machine::Config mc;
  mc.num_nodes = nodes;
  mc.gpus_per_node = gpus;
  return mc;
}

fused::EmbeddingA2AConfig embedding_config(int pes, int slots) {
  fused::EmbeddingA2AConfig cfg;
  cfg.map.num_pes = pes;
  cfg.map.tables_per_pe = 2;
  cfg.map.global_batch = 32 * pes;
  cfg.map.dim = 64;
  cfg.map.vectors_per_slice = 8;
  cfg.pooling = 8;
  cfg.occupancy_slots_override = slots;
  cfg.functional = false;
  return cfg;
}

// 2 nodes x 2 GPUs: zero-copy intra-node WGs, RDMA inter-node slices and
// local slices all run.
template <typename Op>
Counts embedding_counts(int slots) {
  gpu::Machine m(fc(2, 2));
  shmem::World w(m);
  Op op(w, embedding_config(4, slots), nullptr);
  return record(op);
}

TEST(FrameBudget, FusedEmbeddingSlot) {
  using Op = fused::FusedEmbeddingAllToAll;
  const Counts base = embedding_counts<Op>(6);
  // 224 B plus the zero-copy step's Device::ComputeThenWait awaiter (40 B),
  // less the World::Issue awaiter it replaced (16 B).
  EXPECT_LE(slot_frame("fused embedding", base, embedding_counts<Op>(7), 6, 4,
                       248),
            248u);
  // Reported, not asserted: one emit_slice_from_slot frame per slice.
  const auto slices =
      static_cast<std::uint64_t>(4 * embedding_config(4, 6).map.num_slices());
  for (std::size_t n : made(base, slices)) {
    std::cout << "  size made once per slice: " << n << " B\n";
  }
}

constexpr int kWarmSlots = 6;

/// Allocations of a warm fused embedding run on 2 nodes x `gpus`, less its
/// one frame per slice.
std::uint64_t warm_embedding_allocs_but_slices(int gpus) {
  gpu::Machine m(fc(2, gpus));
  shmem::World w(m);
  const fused::EmbeddingA2AConfig cfg = embedding_config(2 * gpus, kWarmSlots);
  fused::FusedEmbeddingAllToAll op(w, cfg, nullptr);
  record(op);
  return test::g_alloc.calls -
         static_cast<std::uint64_t>(2 * gpus * cfg.map.num_slices());
}

TEST(FrameBudget, FusedEmbeddingSchedulesNoHeapCallback) {
  // What a warm run allocates per PE: the per-PE body wrapper's frame, the
  // kernel body's frame, the kernel's join-waiter list and the launch's
  // block of slot frames. A scheduled callback larger than the engine's
  // inline buffer would add one heap allocation per PE (the per-PE spawn
  // callback did).
  const std::uint64_t two = warm_embedding_allocs_but_slices(1);
  const std::uint64_t four = warm_embedding_allocs_but_slices(2);
  ASSERT_GT(four, two);
  const std::uint64_t per_pe = (four - two) / 2;
  std::cout << "warm fused embedding: " << per_pe
            << " allocations per PE besides slice frames\n";
  EXPECT_EQ(four - two, 2 * per_pe);
  EXPECT_LE(per_pe, 3u + 1u);
}

TEST(FrameBudget, BaselineEmbeddingSlot) {
  using Op = fused::BaselineEmbeddingAllToAll;
  // One kernel per (PE, table).
  EXPECT_LE(slot_frame("baseline embedding", embedding_counts<Op>(6),
                       embedding_counts<Op>(7), 6,
                       4 * embedding_config(4, 6).map.tables_per_pe, 120),
            120u);
}

// 16 tiles of 16 rows (the last has 10) on 1x4: uneven per-slot tile
// lists, and the reduce phase after every slot's task loop.
Counts fused_gemv_counts(int slots) {
  gpu::Machine m(fc(1, 4));
  shmem::World w(m);
  fused::FusedGemvAllReduce op(w,
                               {.m = 250,
                                .k_global = 1024,
                                .tile_rows = 16,
                                .functional = false,
                                .occupancy_slots_override = slots},
                               nullptr);
  return record(op);
}

TEST(FrameBudget, FusedGemvSlot) {
  EXPECT_LE(slot_frame("fused GEMV", fused_gemv_counts(5),
                       fused_gemv_counts(6), 5, 4, 232),
            232u);
}

// Fewer tiles than the occupancy limit: one slot per tile, so one more
// tile is one more slot.
Counts baseline_gemv_counts(int tiles) {
  gpu::Machine m(fc(1, 4));
  shmem::World w(m);
  fused::BaselineGemvAllReduce op(
      w,
      {.m = 16 * tiles, .k_global = 1024, .tile_rows = 16, .functional = false},
      nullptr);
  return record(op);
}

TEST(FrameBudget, BaselineGemvSlot) {
  EXPECT_LE(slot_frame("baseline GEMV", baseline_gemv_counts(16),
                       baseline_gemv_counts(17), 16, 4, 120),
            120u);
}

// triton::TileKernel, through the fused GEMM+A2A.
Counts tile_kernel_counts(int slots) {
  gpu::Machine m(fc(1, 4));
  shmem::World w(m);
  fused::GemmA2AConfig cfg;
  cfg.rows_per_origin = 256;
  cfg.d_model = 256;
  cfg.d_ff = 512;
  cfg.occupancy_slots_override = slots;
  cfg.functional = false;
  fused::FusedGemmAllToAll op(w, cfg, nullptr);
  return record(op);
}

TEST(FrameBudget, TileKernelSlot) {
  EXPECT_LE(slot_frame("TileKernel", tile_kernel_counts(6),
                       tile_kernel_counts(7), 6, 4, 176),
            176u);
}

}  // namespace
}  // namespace fcc
