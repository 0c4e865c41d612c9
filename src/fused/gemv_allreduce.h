// Fused GEMV + AllReduce (the paper's Sec. III-B scale-up operator) and its
// bulk-synchronous baseline.
//
// Megatron-style row-parallel layer: GPU g holds W_g (m x k/N) and x_g
// (k/N); partial y_g = W_g x_g must be sum-reduced across GPUs. The fused
// kernel uses the two-phase direct AllReduce: tile i's owner is the GPU
// responsible for reducing it (contiguous 1/N ranges). The kernel runs on
// gpu::KernelRun with static assignment: physical WG slot s computes the
// tiles with tile % slots == s, so "counterpart" slots own identical tiles
// on every GPU — that is what lets each slot set just ONE ready flag per
// peer instead of per-tile synchronization.
//
// Per slot, on GPU g:
//   1. task loop (comm-aware: peer-owned tiles first): compute tile; if
//      owned remotely, zero-copy store it into the owner's temp buffer;
//      else keep the partial locally.
//   2. fence, then set one arrival flag on every peer.
//   3. for each owned tile: wait the counterpart slots' flags, reduce the
//      N partials, store the result locally and zero-copy broadcast it to
//      every peer's output, fence, set one broadcast flag per peer.
//   4. wait the counterpart broadcast flags (output rows owned by peers).
// Every step runs as engine calls on the slot's record (gpu::KernelRun).
#pragma once

#include <array>
#include <vector>

#include "ccl/communicator.h"
#include "common/rng.h"
#include "common/types.h"
#include "fused/op_runtime.h"
#include "gpu/occupancy.h"
#include "gpu/persistent.h"
#include "ops/cost_model.h"
#include "ops/gemv.h"
#include "shmem/flags.h"
#include "shmem/sym_array.h"
#include "shmem/world.h"

namespace fcc::fused {

struct GemvAllReduceConfig {
  int m = 8192;       // output rows
  int k_global = 8192;  // reduction dim, split row-wise across PEs
  int tile_rows = ops::kGemvTileRows;
  bool functional = false;
  int occupancy_slots_override = 0;
  /// AllReduce algorithm for the bulk-synchronous baseline (the fused
  /// kernel owns its own two-phase schedule). The historical default is
  /// the flat two-phase direct algorithm; the planner's select-ccl-algo
  /// pass runs every eligible algorithm's schedule on an idle machine and
  /// sets this to the fastest, with no margin (a tie keeps this value).
  ccl::AllReduceAlgo allreduce_algo = ccl::AllReduceAlgo::kTwoPhaseDirect;

  int k_local(int num_pes) const {
    FCC_CHECK(k_global % num_pes == 0);
    return k_global / num_pes;
  }
  ops::GemvShape shape(int num_pes) const {
    ops::GemvShape s;
    s.m = m;
    s.k = k_local(num_pes);
    s.tile_rows = tile_rows;
    return s;
  }
};

struct GemvAllReduceData {
  std::vector<std::vector<float>> w;  // [pe][m * k_local]
  std::vector<std::vector<float>> x;  // [pe][k_local]
  shmem::SymArray<float>* y = nullptr;  // [pe][m] final reduced output

  static GemvAllReduceData random(const GemvAllReduceConfig& cfg, int num_pes,
                                  shmem::SymArray<float>* y,
                                  std::uint64_t seed);
};

class FusedGemvAllReduce final : public FusedOp {
 public:
  FusedGemvAllReduce(shmem::World& world, GemvAllReduceConfig cfg,
                     GemvAllReduceData* data);

  const char* name() const override { return "fused_gemv_allreduce"; }

  sim::Co run() override;

  /// Owner (reducing PE) of a tile: contiguous 1/N ranges.
  PeId owner_of_tile(int tile) const;
  int active_slots() const { return active_slots_; }

 private:
  struct Kernel;
  struct Slot;
  void build_tables();
  sim::Co pe_body(PeId pe);
  /// Step 1's steps (engine calls on the slot's record): claim a tile and
  /// start its step; end it and wait out the WG bookkeeping; issue a
  /// remote partial's store; post the partial.
  static void claim(Slot& s);
  static void computed(sim::Call* c);
  static void bookkept(sim::Call* c);
  static void posted(sim::Call* c);
  /// Steps 2-4, once the slot's queue drains. Steps 2 and 4 each signal
  /// one flag per peer, after the fence before them, then wait for the
  /// counterparts' flags; the record's `bcast` tells which flags. Step 3
  /// reduces each owned tile and stores it to every peer.
  static void fenced(sim::Call* c);
  static void signal_peers(Slot& s);
  static void signal_issued(sim::Call* c);
  static void wait_peers(sim::Call* c);
  static void reduce_next(Slot& s);
  static void tile_reduced(sim::Call* c);
  static void broadcast(Slot& s);
  static void broadcast_issued(sim::Call* c);
  /// Posts the record's step-2 or step-4 flag to its `peer`.
  void signal(const Slot& s);
  /// Posts a finished tile's partial: kept in the local partial buffer
  /// when PE `pe` owns the tile, else stored into the owner's reduction
  /// buffer (the caller has paid the store's issue).
  void post_partial(PeId pe, int slot, int tile);
  /// Functional mode: sums an owned tile's partials into `pe`'s output.
  void reduce_tile(PeId pe, int tile);
  /// Posts the store of an owned, reduced tile into `peer`'s output.
  void post_broadcast(PeId pe, PeId peer, int tile);
  std::size_t flag_index(PeId src, int slot) const;
  /// Tile that PE `pe` runs at KernelRun position `pos`; -1 (the drained
  /// queue) stays -1.
  int tile_at(PeId pe, int pos) const {
    return pos < 0 ? pos
                   : order_[static_cast<std::size_t>(pe)]
                           [static_cast<std::size_t>(pos)];
  }

  GemvAllReduceConfig cfg_;
  GemvAllReduceData* data_;
  int num_pes_;
  ops::GemvShape shape_;
  int num_tiles_;
  int active_slots_ = 1;
  // Built by the first run(), with their duration tables.
  /// Per-tile compute cost: [0] keeps the partial (local write), [1]
  /// stores it to the owner.
  std::array<gpu::WorkCost, 2> tile_cost_{};
  /// Per-owned-tile reduce cost: [0] a full tile, [1] the last tile.
  std::array<gpu::WorkCost, 2> reduce_cost_{};
  /// Per PE, the tile at each KernelRun position: position s + j * slots
  /// holds slot s's j-th tile.
  std::vector<std::vector<int>> order_;

  // Runtime state.
  FlagSet arrive_flags_;                               // [pe][src*slots+slot]
  FlagSet bcast_flags_;                                // [pe][src*slots+slot]
  std::vector<std::vector<float>> local_partial_;      // [pe][m] (functional)
  // temp_[owner][src][m]: partials stored by peers into the owner's
  // reduction buffer (functional).
  std::vector<std::vector<std::vector<float>>> temp_;
};

class BaselineGemvAllReduce final : public BulkSyncOp {
 public:
  BaselineGemvAllReduce(shmem::World& world, GemvAllReduceConfig cfg,
                        GemvAllReduceData* data);

  const char* name() const override { return "baseline_gemv_allreduce"; }

 private:
  void prepare() override;
  sim::Co compute(PeId pe, TimeNs t0) override;
  sim::Co collective(ccl::Communicator& comm) override;
  /// Functional mode: computes a tile into PE `pe`'s partial vector.
  void tile_to_partial(PeId pe, int tile);

  GemvAllReduceConfig cfg_;
  GemvAllReduceData* data_;
  int slots_per_pe_ = 0;
  gpu::WorkCost tile_cost_;  // duration table built by the first run()
  std::vector<std::vector<float>> partial_;  // [pe][m] (functional)
};

}  // namespace fcc::fused
