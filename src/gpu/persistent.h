// Persistent-kernel runtime.
//
// A kernel is launched with a fixed, input-independent number of physical
// WG "slots" (at most the occupancy limit); each slot runs a task loop that
// claims logical workgroups from a shared, pre-ordered work queue — the
// persistent-threads style of [Gupta et al. 2012] the paper builds on.
// Regular (non-persistent) kernels use the same runtime: the hardware WG
// scheduler backfilling slots is timing-equivalent to dynamic claiming.
//
// The slot is the unit of execution: each spawned slot is one sim::Task
// running the kernel's slot body, one long-lived coroutine frame that loops
//
//   for (int lw; (lw = co_await run.next(slot)) >= 0;) { ...one WG... }
//
// and then runs whatever the slot does after the queue drains (the fused
// kernels' flag polling) inline. A logical WG costs no frame of its own.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <functional>
#include <numeric>
#include <utility>
#include <vector>

#include "common/check.h"
#include "sim/co.h"
#include "sim/engine.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace fcc::gpu {

class KernelRun {
 public:
  /// Body of one physical WG slot: claims logical WGs with `run.next(slot)`
  /// until it yields -1. Bind a non-coroutine lambda that returns a member
  /// coroutine; a coroutine lambda's captures live in the std::function, not
  /// in the frame.
  using SlotBody = std::function<sim::Co(KernelRun& run, int slot)>;

  struct Params {
    int num_slots = 1;
    std::vector<int> order;  // execution order over logical WGs
    SlotBody body;
    /// Task-loop bookkeeping per logical WG (index arithmetic, claim),
    /// charged by next() after each successful claim.
    TimeNs wg_dispatch_overhead_ns = 0;
    /// Static assignment: slot s executes order positions s, s+slots, ...
    /// instead of claiming dynamically. The fused GEMV+AllReduce runs this
    /// way so "counterpart" physical WGs own the same tiles on every GPU
    /// (the paper's per-slot peer flags depend on it); its order lays out
    /// each slot's tiles at stride `num_slots`.
    bool static_assignment = false;
  };

  KernelRun(sim::Engine& engine, Params params)
      : engine_(engine),
        params_(std::move(params)),
        done_(engine, params_.num_slots) {
    FCC_CHECK(params_.num_slots >= 1);
    FCC_CHECK(params_.body != nullptr);
  }

  KernelRun(const KernelRun&) = delete;
  KernelRun& operator=(const KernelRun&) = delete;

  /// Spawns the slot processes: min(num_slots, work) of them, at least one.
  /// Surplus slots never enter the body. Call exactly once.
  void start() {
    FCC_CHECK_MSG(!started_, "kernel started twice");
    started_ = true;
    const int work = static_cast<int>(params_.order.size());
    active_slots_ = std::min(params_.num_slots, std::max(work, 1));
    if (params_.static_assignment) {
      static_pos_.resize(static_cast<std::size_t>(active_slots_));
      std::iota(static_pos_.begin(), static_pos_.end(), std::size_t{0});
    }
    // JoinCounter was sized for num_slots; retire unused slots immediately.
    for (int s = active_slots_; s < params_.num_slots; ++s) done_.arrive();
    for (int s = 0; s < active_slots_; ++s) slot_proc(engine_, s);
  }

  /// Awaitable completion (all slot bodies returned).
  auto wait() { return done_.wait(); }
  bool finished() const { return done_.is_done(); }

  /// Slots actually spawned (min of num_slots and work size); valid after
  /// start().
  int active_slots() const { return active_slots_; }

  /// Awaiter of next(): the claim is made when the awaiter is built; a
  /// successful claim then suspends for the dispatch overhead, if any.
  class [[nodiscard]] Next {
   public:
    bool await_ready() const noexcept {
      return lw_ < 0 || run_.params_.wg_dispatch_overhead_ns <= 0;
    }
    void await_suspend(std::coroutine_handle<> h) {
      run_.engine_.schedule_resume_after(run_.params_.wg_dispatch_overhead_ns,
                                         h);
    }
    int await_resume() const noexcept { return lw_; }

   private:
    friend class KernelRun;
    Next(KernelRun& run, int lw) : run_(run), lw_(lw) {}
    KernelRun& run_;
    int lw_;
  };

  /// Claims `slot`'s next logical WG: the shared cursor's next position, or
  /// under static assignment positions slot, slot + active, ... Yields the
  /// WG id, or -1 once the queue is drained (no overhead on that claim).
  Next next(int slot) {
    std::size_t pos;
    if (params_.static_assignment) {
      auto& p = static_pos_[static_cast<std::size_t>(slot)];
      pos = p;
      p += static_cast<std::size_t>(active_slots_);
    } else {
      pos = cursor_++;
    }
    const int lw = pos < params_.order.size() ? params_.order[pos] : -1;
    return Next(*this, lw);
  }

 private:
  sim::Task slot_proc(sim::Engine& /*engine*/, int slot) {
    co_await params_.body(*this, slot);
    done_.arrive();
  }

  sim::Engine& engine_;
  Params params_;
  sim::JoinCounter done_;
  std::size_t cursor_ = 0;
  std::vector<std::size_t> static_pos_;  // per slot, static assignment
  int active_slots_ = 1;
  bool started_ = false;
};

}  // namespace fcc::gpu
