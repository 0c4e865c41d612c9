// Slot-record budgets of the persistent-kernel operators.
//
// Every physical WG slot of a gpu::KernelRun is a record that lives for the
// whole kernel, so its size sets the host memory of a large run (64 PEs x
// 624 slots on the Fig. 15 torus flagship). A slot's whole program, its
// flag waits included, runs as calls on that record, and a launch places
// its records in one array, so a slot's cost is the array's per-slot
// stride. This binary replaces the global operator new with one that
// counts allocation sizes and runs each operator timing-only on a small
// machine, twice: with S and with S + 1 slots per kernel. A stride is a
// size n for which the size (S + 1) * n is made exactly once more per
// kernel in the second run and S * n at least once per kernel in the
// first. Each operator must show exactly one, its record's: anything else
// allocated per slot (a coroutine frame) fails here, and so does a record
// that grows past one cache line, instead of showing up as peak RSS in
// the benchmark. The last test pins what else a warm run allocates per
// PE: nothing per slot or per slice, and no scheduled callback that falls
// back to the heap.
#include <gtest/gtest.h>

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
/// and `slots + 1` in `more`, `kernels` launches each (see the header).
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
  return found;
}

/// Checks that an operator's only per-slot allocation is its slot record,
/// within one cache line, and prints the record's size; returns it (0 if
/// there is not exactly one stride).
std::size_t expect_record(const char* what, const Counts& base,
                          const Counts& more, int slots,
                          std::uint64_t kernels) {
  const std::vector<std::size_t> found = strides(base, more, slots, kernels);
  EXPECT_EQ(found.size(), 1u) << what << ": not exactly one per-slot stride";
  if (found.size() != 1) return 0;
  std::cout << what << " slot record: " << found[0] << " B (budget "
            << gpu::KernelRun::kMaxSlotBytes << " B)\n";
  EXPECT_LE(found[0], gpu::KernelRun::kMaxSlotBytes) << what;
  return found[0];
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
  // The record also polls the slot's sliceRdy flags. It fires the most
  // engine events of any record on every bench/perf workload, so it is
  // pinned at half a cache line: slice, lane and zero-copy bit.
  using Op = fused::FusedEmbeddingAllToAll;
  EXPECT_EQ(expect_record("fused embedding", embedding_counts<Op>(6),
                          embedding_counts<Op>(7), 6, 4),
            32u);
}

TEST(FrameBudget, BaselineEmbedding) {
  using Op = fused::BaselineEmbeddingAllToAll;
  // One kernel per (PE, table).
  expect_record("baseline embedding", embedding_counts<Op>(6),
                embedding_counts<Op>(7), 6,
                4 * embedding_config(4, 6).map.tables_per_pe);
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

TEST(FrameBudget, FusedGemv) {
  // The record also runs the arrive flags, reduce and broadcast, and the
  // broadcast waits.
  expect_record("fused GEMV", fused_gemv_counts(5), fused_gemv_counts(6), 5,
                4);
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
  expect_record("baseline GEMV", baseline_gemv_counts(16),
                baseline_gemv_counts(17), 16, 4);
}

// triton::TileKernel, through the fused GEMM+A2A on 1x4. Fewer slots than
// PEs, so that one more slot takes a share of the arrival-counter waits.
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
  // The record also polls the arrival counters (LaunchConfig::wait_flags).
  expect_record("TileKernel", tile_kernel_counts(2), tile_kernel_counts(3), 2,
                4);
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
  // kernel body's frame, the kernel's join-waiter list and the launch's
  // slot records. A slice or a slot costs no allocation (slices and flag
  // polls are call steps on the record), and a scheduled callback larger
  // than the engine's inline buffer would add one heap allocation per PE
  // (the per-PE spawn callback did).
  const std::uint64_t per_pe = warm_embedding_allocs_per_pe(6, 8);
  std::cout << "warm fused embedding: " << per_pe
            << " allocations per PE\n";
  EXPECT_LE(per_pe, 4u);
  EXPECT_EQ(warm_embedding_allocs_per_pe(7, 8), per_pe) << "one more slot";
  EXPECT_EQ(warm_embedding_allocs_per_pe(6, 4), per_pe) << "twice the slices";
}

}  // namespace
}  // namespace fcc
