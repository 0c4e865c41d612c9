// Persistent-kernel runtime.
//
// A kernel is launched with a fixed, input-independent number of physical
// WG "slots" (at most the occupancy limit); each slot runs a task loop that
// claims positions 0..num_wgs-1 of a shared work queue — the
// persistent-threads style of [Gupta et al. 2012] the paper builds on.
// Regular (non-persistent) kernels use the same runtime: the hardware WG
// scheduler backfilling slots is timing-equivalent to dynamic claiming.
//
// The runtime's state scales with slots, not logical WGs. It hands out
// *positions*; each kernel maps a position to its logical WG (the identity,
// or the operator's own compact execution order built once), so no launch
// copies or builds a per-WG order.
//
// A slot is a record, not a coroutine: the kernel derives its record type
// from KernelRun::Slot (at most 64 B, one cache line), and start() places
// the records of a launch in one array. A slot's whole program runs as a
// chain of engine calls on its record (sim::Call): each step does its
// plain work (a claim, posting a PUT, marking WG_Done), then schedules the
// next step through a wait primitive's call form — Device::start_step /
// end_step for a compute step, Device::wait_then for a device wait,
// World::issue_then and fence_then, FlagArray::wait_ge_then for a flag
// wait, after() for a plain wait. These are the only implementation of
// each wait: a coroutine awaits the same call form through sim::suspend,
// so a chain fires the events a coroutine would, without keeping a frame
// per slot. A step's record fields carry what the slot needs from one step
// to the next; everything shared lives in the kernel's own KernelRun
// subclass, which the record's `run` reaches. compute_kernel() is the
// whole kernel of an operator that only computes (the baselines).
//
// That includes what a slot waits on once its queue drains: the fused
// kernels' flag polls (FlagArray::poll_then, the position in the record)
// and the fused GEMV's reduce-and-broadcast phase are further steps of the
// same chain. A slot whose chain ends calls finish(), which arrives on the
// kernel's join counter. A warm launch costs one allocation, its records,
// whatever its slot, WG or slice count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <new>
#include <type_traits>

#include "common/check.h"
#include "common/types.h"
#include "gpu/device.h"
#include "sim/co.h"
#include "sim/engine.h"
#include "sim/sync.h"

namespace fcc::gpu {

class KernelRun {
 public:
  /// Base of a kernel's slot record. The record is the engine call its
  /// chain's steps run as (`fn` is the next step).
  struct Slot : sim::Call {
    KernelRun* run;
    int index;   // slot number, 0..active_slots()-1
    int cursor;  // static assignment: the next position this slot claims
  };

  /// A slot record's size limit: one cache line.
  static constexpr std::size_t kMaxSlotBytes = 64;

  struct Params {
    int num_slots = 1;
    /// Logical WGs: next() hands out positions 0..num_wgs-1.
    int num_wgs = 0;
    /// Task-loop bookkeeping per logical WG (index arithmetic, claim): a
    /// kernel waits it out after() each successful claim.
    TimeNs wg_dispatch_overhead_ns = 0;
    /// Static assignment: slot s claims positions s, s+slots, ... instead
    /// of claiming dynamically. The fused GEMV+AllReduce runs this way so
    /// "counterpart" physical WGs own the same tiles on every GPU (the
    /// paper's per-slot peer flags depend on it); its order lays out each
    /// slot's tiles at stride `num_slots`.
    bool static_assignment = false;
  };

  /// A launch on `dev`, whose engine runs its events.
  KernelRun(Device& dev, Params params)
      : dev_(dev),
        params_(params),
        done_(dev.engine(), params_.num_slots),
        active_slots_(std::min(params_.num_slots,
                               std::max(params_.num_wgs, 1))) {
    FCC_CHECK(params_.num_slots >= 1);
    FCC_CHECK(params_.num_wgs >= 0);
  }

  KernelRun(const KernelRun&) = delete;
  KernelRun& operator=(const KernelRun&) = delete;

  /// The records stay allocated while a slot has not finished: its engine
  /// events or flag waits still point into them (an exception out of the
  /// engine's run mid-kernel leaves them pending).
  ~KernelRun() {
    if (done_.is_done()) ::operator delete(records_);
  }

  /// Starts the slots: min(num_slots, num_wgs) of them, at least one, each
  /// a value-initialized `Rec` in one array, in slot order. `first` runs
  /// each slot's chain up to its first scheduled step (it claims with
  /// next()); surplus slots never start. Call exactly once.
  template <typename Rec>
  void start(void (*first)(Rec& slot)) {
    static_assert(std::is_base_of_v<Slot, Rec>);
    static_assert(std::is_trivially_destructible_v<Rec>);
    static_assert(sizeof(Rec) <= kMaxSlotBytes,
                  "a slot record must fit one cache line");
    static_assert(alignof(Rec) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
    FCC_CHECK_MSG(records_ == nullptr, "kernel started twice");
    records_ = ::operator new(sizeof(Rec) *
                              static_cast<std::size_t>(active_slots_));
    Rec* recs = static_cast<Rec*>(records_);
    for (int s = 0; s < active_slots_; ++s) {
      Rec* r = ::new (static_cast<void*>(recs + s)) Rec{};
      r->run = this;
      r->index = s;
      r->cursor = s;
    }
    // The join counter was sized for num_slots; retire unused slots now.
    for (int s = active_slots_; s < params_.num_slots; ++s) done_.arrive();
    for (int s = 0; s < active_slots_; ++s) first(recs[s]);
  }

  /// Awaitable completion (every slot finished).
  auto wait() { return done_.wait(); }
  bool finished() const { return done_.is_done(); }

  /// Slots actually spawned (min of num_slots and work size, at least 1).
  int active_slots() const { return active_slots_; }

  Device& device() { return dev_; }
  PeId pe() const { return dev_.id(); }
  sim::Engine& engine() { return dev_.engine(); }
  TimeNs dispatch_overhead() const { return params_.wg_dispatch_overhead_ns; }

  /// Claims `s`'s next position: the shared cursor's next one, or under
  /// static assignment positions index, index + active, ... Returns the
  /// position, or -1 once the queue is drained.
  int next(Slot& s) {
    int pos;
    if (params_.static_assignment) {
      pos = s.cursor;
      s.cursor += active_slots_;
    } else {
      pos = cursor_++;
    }
    return pos < params_.num_wgs ? pos : -1;
  }

  /// Runs `next` on `s` after `dt`: a plain wait, charged to nothing.
  void after(TimeNs dt, Slot& s, sim::Call::Fn next) {
    engine().call_after(dt, s, next);
  }

  /// Ends `s`'s chain: the slot has finished.
  void finish(Slot&) { done_.arrive(); }

 private:
  Device& dev_;
  Params params_;
  sim::JoinCounter done_;
  int cursor_ = 0;
  int active_slots_;
  void* records_ = nullptr;  // active_slots_ records, built by start()
};

/// Runs a kernel that only computes, the baselines' compute phase: each of
/// `params.num_wgs` WGs is one step of `cost`, and WG w calls `on_wg(w)`
/// at its step's end (functional mode's data work, or nothing).
template <typename OnWg>
sim::Co compute_kernel(Device& dev, KernelRun::Params params,
                       const WorkCost& cost, OnWg on_wg) {
  struct Run : KernelRun {
    const WorkCost& cost;
    OnWg& on_wg;
  };
  /// A slot's record: the WG in flight.
  struct Slot : KernelRun::Slot {
    int wg;
    static void claim(Slot& s) {
      Run& k = static_cast<Run&>(*s.run);
      s.wg = k.next(s);
      if (s.wg < 0) {
        k.finish(s);
        return;
      }
      k.device().start_step(k.cost, s, &computed);
    }
    static void computed(sim::Call* c) {
      Slot& s = static_cast<Slot&>(*c);
      Run& k = static_cast<Run&>(*s.run);
      k.device().end_step();
      k.on_wg(s.wg);
      claim(s);
    }
  };
  Run k{{dev, params}, cost, on_wg};
  k.start(&Slot::claim);
  co_await k.wait();
}

}  // namespace fcc::gpu
