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
// *positions*; each slot body maps a position to its logical WG (the
// identity, or the operator's own compact execution order built once), so
// no launch copies or builds a per-WG order. The slot is the unit of
// execution: each spawned slot is one detached coroutine frame running the
// kernel's slot body, which loops
//
//   for (int pos; (pos = co_await run.next(slot)) >= 0;) { ...one WG... }
//
// and then runs whatever the slot does after the queue drains (the fused
// kernels' flag polling) inline. The frames of a launch's slots sit back to
// back in one block (sim::FrameBlock), allocated by start() and freed with
// the KernelRun; a finishing slot arrives on the kernel's join counter. A
// logical WG costs no frame, and a launch one allocation.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <functional>
#include <numeric>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "sim/co.h"
#include "sim/engine.h"
#include "sim/sync.h"

namespace fcc::gpu {

class KernelRun {
 public:
  /// Body of one physical WG slot: claims positions with `run.next(slot)`
  /// until it yields -1. Bind a non-coroutine lambda that returns a member
  /// coroutine; a coroutine lambda's captures live in the std::function, not
  /// in the frame.
  using SlotBody = std::function<sim::Co(KernelRun& run, int slot)>;

  struct Params {
    int num_slots = 1;
    /// Logical WGs: next() hands out positions 0..num_wgs-1.
    int num_wgs = 0;
    SlotBody body;
    /// Task-loop bookkeeping per logical WG (index arithmetic, claim),
    /// charged by next() after each successful claim.
    TimeNs wg_dispatch_overhead_ns = 0;
    /// Static assignment: slot s claims positions s, s+slots, ... instead
    /// of claiming dynamically. The fused GEMV+AllReduce runs this way so
    /// "counterpart" physical WGs own the same tiles on every GPU (the
    /// paper's per-slot peer flags depend on it); its order lays out each
    /// slot's tiles at stride `num_slots`.
    bool static_assignment = false;
  };

  KernelRun(sim::Engine& engine, Params params)
      : engine_(engine),
        params_(std::move(params)),
        done_(engine, params_.num_slots),
        active_slots_(std::min(params_.num_slots,
                               std::max(params_.num_wgs, 1))),
        frames_(active_slots_, &KernelRun::slot_done, this) {
    FCC_CHECK(params_.num_slots >= 1);
    FCC_CHECK(params_.num_wgs >= 0);
    FCC_CHECK(params_.body != nullptr);
  }

  KernelRun(const KernelRun&) = delete;
  KernelRun& operator=(const KernelRun&) = delete;

  /// Starts the slot bodies: min(num_slots, num_wgs) of them, at least
  /// one, each a detached frame in the launch's block that runs to its
  /// first suspension here. Surplus slots never enter the body. Call
  /// exactly once.
  void start() {
    FCC_CHECK_MSG(!started_, "kernel started twice");
    started_ = true;
    if (params_.static_assignment) {
      static_pos_.resize(static_cast<std::size_t>(active_slots_));
      std::iota(static_pos_.begin(), static_pos_.end(), 0);
    }
    // JoinCounter was sized for num_slots; retire unused slots immediately.
    for (int s = active_slots_; s < params_.num_slots; ++s) done_.arrive();
    for (int s = 0; s < active_slots_; ++s) {
      frames_.start([this, s] { return params_.body(*this, s); });
    }
  }

  /// Awaitable completion (all slot bodies returned).
  auto wait() { return done_.wait(); }
  bool finished() const { return done_.is_done(); }

  /// Slots actually spawned (min of num_slots and work size, at least 1).
  int active_slots() const { return active_slots_; }

  /// Awaiter of next(): the claim is made when the awaiter is built; a
  /// successful claim then suspends for the dispatch overhead, if any.
  class [[nodiscard]] Next {
   public:
    bool await_ready() const noexcept {
      return pos_ < 0 || run_.params_.wg_dispatch_overhead_ns <= 0;
    }
    void await_suspend(std::coroutine_handle<> h) {
      run_.engine_.schedule_resume_after(run_.params_.wg_dispatch_overhead_ns,
                                         h);
    }
    int await_resume() const noexcept { return pos_; }

   private:
    friend class KernelRun;
    Next(KernelRun& run, int pos) : run_(run), pos_(pos) {}
    KernelRun& run_;
    int pos_;
  };

  /// Claims `slot`'s next position: the shared cursor's next one, or under
  /// static assignment positions slot, slot + active, ... Yields the
  /// position, or -1 once the queue is drained (no overhead on that claim).
  Next next(int slot) {
    int pos;
    if (params_.static_assignment) {
      int& p = static_pos_[static_cast<std::size_t>(slot)];
      pos = p;
      p += active_slots_;
    } else {
      pos = cursor_++;
    }
    return Next(*this, pos < params_.num_wgs ? pos : -1);
  }

 private:
  /// Completion of one detached slot frame (already destroyed).
  static void slot_done(void* run) {
    static_cast<KernelRun*>(run)->done_.arrive();
  }

  sim::Engine& engine_;
  Params params_;
  sim::JoinCounter done_;
  int cursor_ = 0;
  std::vector<int> static_pos_;  // per slot, static assignment
  int active_slots_;
  sim::FrameBlock frames_;  // the slot frames
  bool started_ = false;
};

}  // namespace fcc::gpu
