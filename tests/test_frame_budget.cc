// Slot-record and tail-frame budgets of the persistent-kernel operators.
//
// Every physical WG slot of a gpu::KernelRun is a record that lives for the
// whole kernel, so its size sets the host memory of a large run (64 PEs x
// 624 slots on the Fig. 15 torus flagship); a slot that still waits on
// something after its queue drains also holds a tail coroutine frame. A
// launch places its records in one array and its tail frames in one block
// (sim::FrameBlock), so each one's cost is its array's per-slot stride.
// This binary replaces the global operator new with one that counts
// allocation sizes and runs each operator timing-only on a small machine,
// twice: with S and with S + 1 slots per kernel. A stride is a size n for
// which the size (S + 1) * n is made exactly once more per kernel in the
// second run and S * n at least once per kernel in the first. The records
// are allocated first (by KernelRun::start), then the tail block (by the
// first tail), so the first stride is the record's and the second, if
// any, the tail frame's. A record or frame that grows past its budget
// fails here instead of showing up as peak RSS in the benchmark. The last
// test pins what else a warm run allocates per PE: nothing per slot or per
// slice, and no scheduled callback that falls back to the heap.
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
#include "gpu/persistent.h"
#include "shmem/world.h"

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

/// The per-slot strides of kernels launched with `slots` slots in `base`
/// and `slots + 1` in `more`, `kernels` launches each (see the header), in
/// order of first allocation in `more`: the record's, then the tail
/// frame's.
std::vector<std::size_t> strides(const Counts& base, const Counts& more,
                                 int slots, std::uint64_t kernels) {
  const auto s = static_cast<std::size_t>(slots);
  std::vector<std::size_t> found;
  for (std::size_t n = sizeof(gpu::KernelRun::Slot); (s + 1) * n <
                                                     more.count.size();
       ++n) {
    if (more.count[(s + 1) * n] == base.count[(s + 1) * n] + kernels &&
        base.count[s * n] >= kernels) {
      found.push_back(n);
    }
  }
  std::sort(found.begin(), found.end(),
            [&more, s](std::size_t a, std::size_t b) {
              return more.first[(s + 1) * a] < more.first[(s + 1) * b];
            });
  return found;
}

/// Checks an operator's slot record against its budget and, if
/// `tail_budget` is nonzero (a kernel with tails), its tail frame, started by `tail_kernels` of
/// the `kernels` launches (a slot whose flags are all up once its queue
/// drains starts none). Prints both next to their budgets.
void expect_budgets(const char* what, const Counts& base, const Counts& more,
                    int slots, std::uint64_t kernels, std::size_t tail_budget,
                    std::uint64_t tail_kernels) {
  const std::vector<std::size_t> found = strides(base, more, slots, kernels);
  ASSERT_FALSE(found.empty()) << what << ": no slot-record stride";
  const std::size_t rec = found[0];
  std::cout << what << " slot record: " << rec << " B (budget "
            << gpu::KernelRun::kMaxSlotBytes << " B)\n";
  EXPECT_LE(rec, gpu::KernelRun::kMaxSlotBytes) << what;
  if (tail_budget == 0) return;
  std::vector<std::size_t> tails = strides(base, more, slots, tail_kernels);
  std::erase(tails, rec);
  ASSERT_EQ(tails.size(), 1u) << what << ": no single tail-frame stride";
  std::cout << what << " tail frame: " << tails[0] << " B (budget "
            << tail_budget << " B)\n";
  EXPECT_LE(tails[0], tail_budget) << what;
}

gpu::Machine::Config fc(int nodes, int gpus) {
  gpu::Machine::Config mc;
  mc.num_nodes = nodes;
  mc.gpus_per_node = gpus;
  return mc;
}

fused::EmbeddingA2AConfig embedding_config(int pes, int slots, int vps = 8) {
  fused::EmbeddingA2AConfig cfg;
  cfg.map.num_pes = pes;
  cfg.map.tables_per_pe = 2;
  cfg.map.global_batch = 32 * pes;
  cfg.map.dim = 64;
  cfg.map.vectors_per_slice = vps;
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

TEST(FrameBudget, FusedEmbedding) {
  using Op = fused::FusedEmbeddingAllToAll;
  // The tail: FlagArray::wait_from, polling the slot's sliceRdy flags.
  expect_budgets("fused embedding", embedding_counts<Op>(6),
                 embedding_counts<Op>(7), 6, 4, 104, 4);
}

TEST(FrameBudget, BaselineEmbedding) {
  using Op = fused::BaselineEmbeddingAllToAll;
  // One kernel per (PE, table); no tail.
  expect_budgets("baseline embedding", embedding_counts<Op>(6),
                 embedding_counts<Op>(7), 6,
                 4 * embedding_config(4, 6).map.tables_per_pe, 0, 0);
}

// 16 tiles of 16 rows (the last has 10) on 1x4: uneven per-slot tile
// lists, and the tail's reduce phase after every slot's task loop.
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

TEST(FrameBudget, FusedGemv) {
  // The tail: arrive flags, reduce and broadcast, broadcast waits.
  expect_budgets("fused GEMV", fused_gemv_counts(5), fused_gemv_counts(6), 5,
                 4, 248, 4);
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

TEST(FrameBudget, BaselineGemv) {
  expect_budgets("baseline GEMV", baseline_gemv_counts(16),
                 baseline_gemv_counts(17), 16, 4, 0, 0);
}

// triton::TileKernel, through the fused GEMM+A2A on 1x4. Fewer slots than
// PEs, so that the arrival-counter waits, split across the slots, can
// start one more tail per kernel with one more slot.
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

TEST(FrameBudget, TileKernel) {
  // The tail: FlagArray::wait_from, on the arrival counters. PEs 0 and 1
  // still wait for arrivals when their queues drain; PEs 2 and 3 find
  // every counter in and start no tail.
  expect_budgets("TileKernel", tile_kernel_counts(2), tile_kernel_counts(3),
                 2, 4, 112, 2);
}

/// Allocations per PE of a warm fused embedding run with `slots` slots
/// and `vps` vectors per slice: the difference between 2 nodes x 2 GPUs
/// and 2 nodes x 1 GPU, per added PE.
std::uint64_t warm_embedding_allocs_per_pe(int slots, int vps) {
  std::uint64_t calls[2] = {};
  for (const int gpus : {1, 2}) {
    gpu::Machine m(fc(2, gpus));
    shmem::World w(m);
    fused::FusedEmbeddingAllToAll op(w, embedding_config(2 * gpus, slots, vps),
                                     nullptr);
    record(op);
    calls[gpus - 1] = test::g_alloc.calls;
  }
  EXPECT_GT(calls[1], calls[0]);
  EXPECT_EQ((calls[1] - calls[0]) % 2, 0u);
  return (calls[1] - calls[0]) / 2;
}

TEST(FrameBudget, WarmEmbeddingAllocatesPerPeNotPerSlotOrSlice) {
  // What a warm run allocates per PE: the per-PE body wrapper's frame, the
  // kernel body's frame, the kernel's join-waiter list, the launch's slot
  // records and its tail block. A slice or a slot costs no allocation
  // (slices are call steps on the record, tails share the block), and a
  // scheduled callback larger than the engine's inline buffer would add
  // one heap allocation per PE (the per-PE spawn callback did).
  const std::uint64_t per_pe = warm_embedding_allocs_per_pe(6, 8);
  std::cout << "warm fused embedding: " << per_pe
            << " allocations per PE\n";
  EXPECT_LE(per_pe, 5u);
  EXPECT_EQ(warm_embedding_allocs_per_pe(7, 8), per_pe) << "one more slot";
  EXPECT_EQ(warm_embedding_allocs_per_pe(6, 4), per_pe) << "twice the slices";
}

}  // namespace
}  // namespace fcc
