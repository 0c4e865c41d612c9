// Fused embedding pooling + All-to-All (the paper's Sec. III-A operator)
// and its bulk-synchronous baseline.
//
// Fused path: one persistent HIP-style kernel per PE. Each logical WG pools
// one output vector; the last WG of a slice (WG_Done bitmask) issues the
// slice's remote PUT + fence + sliceRdy flag. Intra-node destinations use
// zero-copy per-WG stores over the fabric (no staging); inter-node slices
// stage locally and go out as one RDMA PUT. Logical WGs run in
// communication-aware order unless configured oblivious: remote slices
// first, one destination block at a time, inter-node destinations in the
// topology's shift order (hw::Topology::shift_order), then intra-node ones
// starting at the PE after self (SliceMap::comm_aware_blocks). Staggering
// keeps all sources off one destination's ingress links at once: on the 8x8
// torus flagship the shared 0..n-1 order took 3.345x the baseline's span,
// the (self + k) ring shift 0.884x, uniform 2D shifts (every source taking
// the same (dx, dy) at each step) 0.670x, and the torus's
// checkerboard-mirrored shifts, where odd-coloured sources take
// (-dx, -dy), 0.348x (3874 sim_us).
// The order permutes whole destination blocks, so each PE keeps
// only its num_pes-entry block sequence (built on the first run) and maps
// a KernelRun position to its WG arithmetically, instead of storing
// num_logical_wgs() ids per PE. A WG, and the slice its last WG emits, run
// as engine calls on the slot's record (gpu::KernelRun): compute, the
// zero-copy store's issue, WG_Done bookkeeping, then the slice's fence,
// issues, PUT and flag. After draining the task loop, each persistent WG
// polls a distinct subset of sliceRdy flags before exiting, as further
// steps of the same chain.
//
// Baseline path: per-table pooling kernels (public-DLRM structure) on a
// stream, host sync, then the ccl All-to-All, then sync — communication
// starts only at the kernel boundary.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "ccl/communicator.h"
#include "common/types.h"
#include "fused/op_runtime.h"
#include "fused/slice.h"
#include "gpu/occupancy.h"
#include "gpu/persistent.h"
#include "gpu/schedule.h"
#include "ops/cost_model.h"
#include "ops/embedding.h"
#include "shmem/flags.h"
#include "shmem/sym_array.h"
#include "shmem/world.h"

namespace fcc::fused {

struct EmbeddingA2AConfig {
  SliceMap map;
  int pooling = 64;
  int rows_per_table = 1000;  // used in functional mode only
  gpu::SchedulePolicy policy = gpu::SchedulePolicy::kCommAware;
  bool functional = false;
  /// 0 = derive from kernel resources (fused: baseline regs + shmem ctx).
  int occupancy_slots_override = 0;
  /// Scale-up zero-copy: WG threads store straight into peer memory. When
  /// false, intra-node slices stage locally and move as slice-granular
  /// copies (the ablation in bench_ablation_zero_copy).
  bool zero_copy = true;

  ops::EmbeddingConfig emb_config() const {
    ops::EmbeddingConfig e;
    e.num_tables = map.tables_per_pe;
    e.rows_per_table = rows_per_table;
    e.dim = map.dim;
    e.pooling = pooling;
    return e;
  }
};

/// Functional-mode inputs/outputs; null members in timing-only runs.
struct EmbeddingA2AData {
  std::vector<ops::EmbeddingTables> tables;   // [pe] local tables
  std::vector<ops::EmbeddingBatch> batches;   // [pe] indices over global batch
  shmem::SymArray<float>* output = nullptr;   // [pe][dest_elems]

  static EmbeddingA2AData random(const EmbeddingA2AConfig& cfg,
                                 shmem::SymArray<float>* out,
                                 std::uint64_t seed);
};

class FusedEmbeddingAllToAll final : public FusedOp {
 public:
  FusedEmbeddingAllToAll(shmem::World& world, EmbeddingA2AConfig cfg,
                         EmbeddingA2AData* data);

  const char* name() const override { return "fused_embedding_a2a"; }

  /// Awaitable from a host driver coroutine; fills `result()`.
  sim::Co run() override;

  int slots_per_pe() const { return slots_per_pe_; }

 private:
  struct Kernel;
  struct Slot;
  sim::Co pe_body(PeId pe);
  /// Logical WG that PE `pe` runs at KernelRun position `pos`; -1 (the
  /// drained queue) stays -1.
  int wg_at(PeId pe, int pos) const {
    if (pos < 0 || blocks_.empty()) return pos;  // oblivious: sample-major
    return index_.block_wg(
        &blocks_[static_cast<std::size_t>(pe) *
                 static_cast<std::size_t>(cfg_.map.num_pes)],
        pos);
  }
  // A slot's steps (engine calls on its record), in chain order: claim a
  // WG and start its compute step; end the step (and issue a zero-copy
  // store); post the WG's result; WG_Done bookkeeping, after which the
  // slice's last WG emits it: a local flag, or zero-copy fence + issue, or
  // staged issue + PUT + fence + issue; then the sliceRdy flag.
  static void claim(Slot& s);
  static void step_end(sim::Call* c);
  static void stored(sim::Call* c);
  static void bookkept(sim::Call* c);
  static void zero_copy_fenced(sim::Call* c);
  static void staged_issued(sim::Call* c);
  static void staged_fenced(sim::Call* c);
  static void signal_slice(sim::Call* c);
  /// A drained slot's end: its share of the sliceRdy flags, polled from
  /// the record's `slice`.
  static void poll_slices(sim::Call* c);
  /// Whether a WG's vector goes out as a zero-copy scale-up store.
  bool zero_copy_to(PeId pe, PeId dest) const;
  /// Posts the result of the WG at `lane` of `slice` once its compute
  /// (and, for a zero-copy store, its issue) is done: the zero-copy PUT,
  /// and in functional mode its pooled vector, written to the local output
  /// or its slice's staging buffer, or carried by the PUT's delivery.
  void post_wg(PeId pe, int slice, int lane, bool zero_copy);
  /// Posts a staged slice's PUT (in functional mode, with the delivery
  /// that copies the staging buffer out).
  void post_slice(PeId pe, int slice);
  /// Issue kind of a staged slice's PUTs: RDMA unless `dest` shares the
  /// node.
  shmem::World::IssueKind staged_kind(PeId pe, PeId dest) const;
  EmbeddingA2AConfig cfg_;
  EmbeddingA2AData* data_;
  SliceIndex index_;  // cfg_.map's per-WG arithmetic
  int slots_per_pe_ = 0;
  /// Per-WG compute cost: [0] writes HBM, [1] is a zero-copy store.
  /// Duration tables built by the first run().
  std::array<gpu::WorkCost, 2> wg_cost_{};
  /// Comm-aware policy: PE p's destination block sequence at
  /// [p * num_pes, (p + 1) * num_pes) (SliceMap::comm_aware_blocks), built
  /// by the first run(); empty under the oblivious policy.
  std::vector<PeId> blocks_;

  // Per-PE runtime state, rebuilt by run().
  WgDoneTable wg_done_;                                     // [pe][slice]
  FlagSet slice_rdy_;                                       // [pe][flag]
  std::vector<std::vector<std::vector<float>>> stage_;      // [pe][slice][...]
};

class BaselineEmbeddingAllToAll final : public BulkSyncOp {
 public:
  BaselineEmbeddingAllToAll(shmem::World& world, EmbeddingA2AConfig cfg,
                            EmbeddingA2AData* data);

  const char* name() const override { return "baseline_embedding_a2a"; }

  /// Host-side cost of issuing one per-table kernel launch: launch t is
  /// ready at t0 + kernel_launch_ns + t * kHostIssueGapNs.
  static constexpr TimeNs kHostIssueGapNs = 800;

 private:
  void prepare() override;
  sim::Co compute(PeId pe, TimeNs t0) override;
  sim::Co collective(ccl::Communicator& comm) override;
  /// Functional mode: pools (table, sample b) into PE `pe`'s send buffer.
  void pool_to_send(PeId pe, int table, int b);
  /// Elements per (source, destination) All-to-All chunk.
  std::size_t chunk_elems() const;

  EmbeddingA2AConfig cfg_;
  EmbeddingA2AData* data_;
  int slots_per_pe_ = 0;   // per table kernel
  gpu::WorkCost wg_cost_;  // duration table built by the first run()

  // Functional staging: send/recv in ccl chunk layout [dest|src][t][lb][dim].
  std::vector<std::vector<float>> send_, recv_;
};

}  // namespace fcc::fused
