// Shared runtime for fused/baseline operator pairs.
//
// The paper's three operators — embedding+All-to-All (Sec. III-A),
// GEMV+AllReduce and GEMM+All-to-All (Sec. III-B) — are instances of one
// technique: GPU-initiated intra-kernel communication. This layer holds
// everything they (and their bulk-synchronous baselines) share so a new
// fused operator costs ~100 LoC instead of reimplementing the driver:
//
//   * FusedOp        — the operator interface plus the single engine
//                      spawn/drain driver (`run_to_completion()`).
//   * BulkSyncOp     — the one compute → sync → collective → sync script
//                      every baseline runs; a baseline supplies the per-PE
//                      compute body and the collective call.
//   * OccupancyPlan  — slot-count resolution from KernelResources, an
//                      explicit override, the HBM-contention knee (Fig. 13),
//                      and the task count.
//   * FlagSet        — shmem::FlagArray lifecycle plus the recurring
//                      "remote 8-byte PUT that sets a readiness flag"
//                      signalling idiom (sliceRdy / per-slot peer flags).
//
// Comm-aware order is remote-first for every op but the fused embedding,
// which also staggers its destinations in the topology's shift order
// (SliceMap::comm_aware_blocks): its WGs are sample-major, so a plain
// remote-first pass walks destinations 0..n-1 on every PE at once and
// serialises the A2A on one destination's ingress links at a time (8x8
// torus flagship: 37236 -> 9845 sim_us with the ring shift, 7462 with the
// torus's 2D shifts; fused/baseline 3.345 -> 0.884 -> 0.670). The same
// rotation made the GEMV+AllReduce and tile-DSL ops (GEMM+A2A, MoE
// dispatch) slower (paper_ops sim_us +0.12%, plan_grid +1.6%, one planner
// anchor lost), so they stay remote-first.
//
// Kernels are slot-resident: each physical WG slot is one gpu::KernelRun
// record, and every logical WG it claims runs as a chain of engine calls
// on it (the fused GEMV's slots claim theirs by static assignment). Once
// its queue drains, a slot polls its readiness flags as further calls on
// the same record (FlagArray::poll_then). KernelRun hands out positions;
// each operator maps them to WGs through an order it builds once (or the
// identity), so no run allocates per WG. The tile-DSL ops hand that
// polling to TileKernel::launch as its flag wait.
//
// Per-PE completion times are stamped inside run_per_pe_at bodies (each
// body runs on its PE's home-shard engine), so the runtime works on serial
// and sharded machines alike.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ccl/communicator.h"
#include "common/types.h"
#include "fused/result.h"
#include "gpu/machine.h"
#include "gpu/occupancy.h"
#include "gpu/persistent.h"
#include "shmem/flags.h"
#include "shmem/world.h"
#include "sim/co.h"
#include "sim/shard_join.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace fcc::fused {

/// Knobs for OccupancyPlan::resolve (own type so designated initializers
/// read at call sites).
struct OccupancyOptions {
  /// >0 forces the slot count (the occupancy ablation, Fig. 13).
  int override_slots = 0;
  /// >0 caps derived slots at `max_wg_slots * knee_frac`: memory-bound
  /// kernels degrade past the bandwidth knee, so the persistent grid is
  /// tuned to it. Ignored when override_slots wins.
  double knee_frac = 0.0;
  /// >0 caps the final slot count at the task count (applies to the
  /// override too — a grid larger than the work is never spawned).
  int max_tasks = 0;
};

/// Resolved persistent-grid size for one kernel launch. All operators use
/// the same precedence: explicit override > occupancy limit (optionally
/// capped at the HBM-contention knee), never more slots than tasks.
struct OccupancyPlan {
  int slots = 1;

  static OccupancyPlan resolve(const hw::GpuSpec& spec,
                               const gpu::KernelResources& resources,
                               const OccupancyOptions& opt = {});
};

/// Owning wrapper for a shmem::FlagArray with the per-run lifecycle
/// (allocate-on-run, drop at destruction) and the shared remote-signalling
/// idioms every fused operator repeats.
class FlagSet {
 public:
  /// Modeled size of one flag PUT on the wire.
  static constexpr Bytes kFlagBytes = 8;

  /// (Re)initializes flags[n_pes][n], all zero, each PE's flags waking on
  /// its home-shard engine (so the set works on sharded machines too). A
  /// shape-matching array from a previous run of the same operator is reset
  /// in place, so back-to-back serving runs allocate nothing; a shape
  /// change reallocates. Either way the previous array must have no waiter
  /// left (FlagArray::check_no_waiters — the churn guard). Per-PE home
  /// engines never change for a given world, so reuse never has to re-home
  /// the wakeups.
  void reset(shmem::World& world, std::size_t n) {
    // signal() carries a flag index in 32 bits.
    FCC_CHECK_MSG(n <= std::numeric_limits<std::uint32_t>::max(),
                  "FlagSet of " << n << " flags per PE exceeds 2^32 - 1");
    if (flags_ != nullptr) {
      if (flags_->num_pes() == world.n_pes() && flags_->size() == n) {
        flags_->reset();
        return;
      }
      flags_->check_no_waiters();
    }
    std::vector<sim::Engine*> engines(
        static_cast<std::size_t>(world.n_pes()));
    for (PeId pe = 0; pe < world.n_pes(); ++pe) {
      engines[static_cast<std::size_t>(pe)] = &world.machine().engine_of(pe);
    }
    flags_ = std::make_unique<shmem::FlagArray>(std::move(engines), n);
  }
  void release() { flags_.reset(); }

  shmem::FlagArray* get() const { return flags_.get(); }
  shmem::FlagArray* operator->() const { return flags_.get(); }
  explicit operator bool() const { return flags_ != nullptr; }

  /// Posts a remote PUT from `src` that sets flag[dst][idx] = 1 on
  /// delivery (the sliceRdy idiom: data PUTs order ahead on the FIFO
  /// channel; fence first to order PUTs to other PEs too). Call it once
  /// the PUT's issue cost is paid (World::issue_then). The delivery is a
  /// compact engine event (sim::FlagUpdate): no closure, no callback node.
  void signal(shmem::World& world, PeId src, PeId dst, std::size_t idx) {
    const shmem::FlagArray* flags = flags_.get();
    FCC_CHECK_MSG(flags != nullptr && idx < flags->size(),
                  "FlagSet::signal to flag " << idx << " of "
                                             << (flags ? flags->size() : 0)
                                             << " (reset() first)");
    world.put(src, dst, kFlagBytes, flags->set_update(dst, idx));
  }

 private:
  std::unique_ptr<shmem::FlagArray> flags_;
};

/// Footprint of a persistent fused kernel whose grid is sized from the
/// occupancy API: the baseline kernel's plus a WG-level shmem context
/// (TileKernel::resources() derives the same for tile-DSL kernels).
inline constexpr gpu::KernelResources kFusedKernelResources{
    .vgprs_per_thread = 128 + gpu::kShmemCtxVgprsPerThread};

/// Abstract fused/baseline operator. Concrete operators implement `run()`
/// (one full execution that fills `result()`, awaitable from a host driver
/// coroutine) and `name()`; the spawn/drain driver and result bookkeeping
/// live here, once.
class FusedOp {
 public:
  /// Throws std::logic_error, spelling out the fix, on a sharded machine
  /// failing Machine::supports_fused_ops: every layer's operators pass here.
  explicit FusedOp(shmem::World& world);
  virtual ~FusedOp() = default;
  FusedOp(const FusedOp&) = delete;
  FusedOp& operator=(const FusedOp&) = delete;

  /// Operator + backend-variant name, e.g. "fused_embedding_a2a".
  virtual const char* name() const = 0;

  /// One full execution; fills `result()`.
  virtual sim::Co run() = 0;

  /// Spawns `run()` as a detached engine task and returns the completion
  /// event, set the instant the run finishes; the caller drains the engine
  /// itself. One in-flight run per operator instance at a time; the event
  /// stays valid until the next spawn() or the operator's destruction.
  sim::OneShot& spawn();

  /// Spawns `run()` and drains the engine — the blocking single-op driver
  /// (Session::run, benches running one op at a time). Throws if the
  /// simulation deadlocks (tasks still suspended).
  OperatorResult run_to_completion();

  const OperatorResult& result() const { return result_; }
  shmem::World& world() { return world_; }

 protected:
  sim::Engine& engine() { return world_.machine().engine(); }

  /// Resets `result_`, stamps the start time, and zeroes `pe_end` for
  /// `num_pes` PEs. Call at the top of run().
  void begin_run(int num_pes);

  /// Stamps the end time (pe_end already recorded, e.g. by watchers).
  void finish_run();

  /// Stamps the end time and sets every pe_end to it (bulk-synchronous
  /// baselines: all PEs complete at the collective's sync).
  void finish_run_uniform();

  /// Spawns `body(pe)` on each PE's *home-shard* engine at absolute time
  /// `t_start` and suspends until all bodies complete, resuming at the
  /// exact max completion time — the per-PE spawn/join scaffold every
  /// operator's compute phase repeats, byte-identical serial vs sharded.
  /// All operators pass `engine().now() + kernel_launch_ns` (the physical
  /// floor for any kernel body), which a sharded machine requires to be
  /// >= its lookahead window (the constructor checks it; holds for every
  /// stock fabric). Per-PE completion stamps
  /// (pe_end) belong inside `body` — it runs on engine_of(pe). Tracks
  /// which PE tasks have finished, so a deadlocked run can report exactly
  /// which PEs are stuck.
  sim::Co run_per_pe_at(TimeNs t_start, int num_pes,
                        std::function<sim::Co(PeId)> body);

  /// The fused ops' whole run script: begin_run, one kernel per PE running
  /// `body(pe)` via run_per_pe_at(now + kernel_launch_ns), the host's one
  /// stream sync, finish_run. Bodies stamp their own pe_end.
  sim::Co run_fused(std::function<sim::Co(PeId)> body);

  /// Registers a FlagSet for deadlock diagnostics: when run_to_completion
  /// detects a hang, the report lists this set's unsatisfied wait_ge's by
  /// `name`. Call once per set, typically in the constructor; the FlagSet
  /// must outlive the operator (it is a member of the derived class).
  void register_debug_flags(std::string name, const FlagSet& flags);

  shmem::World& world_;
  OperatorResult result_;

 public:
  /// Diagnostic appendix for the deadlock FCC_CHECK: per-PE stuck/done
  /// state from the last run_per_pe, plus every unsatisfied wait_ge on the
  /// registered FlagSets ("[pe3][5]=2<4": flag[3][5] is 2, waiter needs 4).
  std::string deadlock_report() const;

 private:
  /// Completion event of the in-flight (or last) spawn(); see spawn().
  std::unique_ptr<sim::OneShot> completion_;
  std::vector<std::pair<std::string, const FlagSet*>> debug_flags_;
  std::vector<std::uint8_t> pe_done_;  // last run_per_pe_at completion bits
  /// Cross-shard rendezvous of the in-flight run_per_pe_at (one-shot,
  /// rebuilt per call; degenerates to the serial join on 1-shard machines).
  std::unique_ptr<sim::ShardJoin> join_;
};

/// The kernel-boundary baseline every fused operator is measured against:
/// per-PE compute kernels, one host stream sync, one collective kernel
/// launch on a Communicator over every PE, a final sync, and all PEs
/// complete together. Subclasses supply the per-PE compute body and the
/// collective; the run script lives here, once.
class BulkSyncOp : public FusedOp {
 public:
  sim::Co run() final;

 protected:
  explicit BulkSyncOp(shmem::World& world);

  /// Sets up buffers and duration tables before compute.
  virtual void prepare() = 0;

  /// PE `pe`'s compute phase, spawned on its home-shard engine at
  /// t0 + kernel_launch_ns, where `t0` is the host's launch instant.
  virtual sim::Co compute(PeId pe, TimeNs t0) = 0;

  /// The collective kernel, plus any host-side functional unpacking (which
  /// costs no simulated time).
  virtual sim::Co collective(ccl::Communicator& comm) = 0;

  /// The communicator collective() runs on (construction-time checks).
  const ccl::Communicator& communicator() const { return comm_; }

 private:
  ccl::Communicator comm_;
};

/// Every PE of the machine, in id order (ccl communicator construction).
std::vector<PeId> all_pes(gpu::Machine& machine);

/// Construction-time check of a shape field (named `field` in the
/// message): it must be >= 1.
void check_positive(const char* field, int value);

/// Construction-time check of an `occupancy_slots_override` field: >= 0,
/// where 0 derives the slot count.
void check_slots_override(const char* field, int value);

}  // namespace fcc::fused
