// Persistent-kernel runtime.
//
// A kernel is launched with a fixed, input-independent number of physical
// WG "slots" (at most the occupancy limit); each slot runs a task loop that
// claims logical workgroups from a shared, pre-ordered work queue — the
// persistent-threads style of [Gupta et al. 2012] the paper builds on.
// Regular (non-persistent) kernels use the same runtime: the hardware WG
// scheduler backfilling slots is timing-equivalent to dynamic claiming.
//
// Each slot is one sim::Task; its loop runs every claimed WG inline (the
// dispatch delay, the body's sim::Co, the finish stamp) with no wrapper
// coroutine per WG.
#pragma once

#include <algorithm>
#include <functional>
#include <string>
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
  /// Body of one logical workgroup, executed within a slot's task loop.
  using WgBody = std::function<sim::Co(int slot, int logical_wg)>;

  struct Params {
    std::string name = "kernel";
    int num_slots = 1;
    std::vector<int> order;  // execution order over logical WGs
    WgBody body;
    /// Task-loop bookkeeping per logical WG (index arithmetic, claim).
    TimeNs wg_dispatch_overhead_ns = 0;
    /// Static assignment: slot s executes order positions s, s+slots, ...
    /// instead of claiming dynamically. The fused GEMV+AllReduce operator
    /// needs this so "counterpart" physical WGs own the same tiles on every
    /// GPU (the paper's per-slot peer flags depend on it).
    bool static_assignment = false;
    /// Optional per-slot epilogue after the task loop drains (the fused
    /// kernels poll their subset of readiness flags here before exiting).
    std::function<sim::Co(int slot)> epilogue;
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

  /// Slots start() will actually spawn for `num_slots` configured slots and
  /// `work` queued logical WGs — surplus slots retire immediately (their
  /// epilogue never runs). Exposed so launch wrappers can hand the real
  /// count to epilogues that stride flag subsets across slots.
  static int active_slot_count(int num_slots, int work) {
    return std::min(num_slots, std::max(work, 1));
  }

  /// Spawns the slot processes. Call exactly once.
  void start() {
    FCC_CHECK_MSG(!started_, "kernel started twice");
    started_ = true;
    const int work = static_cast<int>(params_.order.size());
    const int slots = active_slot_count(params_.num_slots, work);
    active_slots_ = slots;
    // JoinCounter was sized for num_slots; retire unused slots immediately.
    for (int s = slots; s < params_.num_slots; ++s) done_.arrive();
    for (int s = 0; s < slots; ++s) slot_proc(engine_, s);
  }

  /// Awaitable completion (all slots drained the work queue).
  auto wait() { return done_.wait(); }
  bool finished() const { return done_.is_done(); }

  /// Per-logical-WG completion timestamps (by logical id), for profiling.
  const std::vector<TimeNs>& finish_times() const { return finish_times_; }
  void record_finish_times(bool on) {
    record_times_ = on;
    if (on) finish_times_.assign(params_.order.size(), kTimeNever);
  }

  /// Slots actually spawned (min of num_slots and work size); valid after
  /// start().
  int active_slots() const { return active_slots_; }

 private:
  sim::Task slot_proc(sim::Engine& engine, int slot) {
    // Static assignment walks positions slot, slot + active, ...; dynamic
    // claiming takes the shared cursor's next position.
    const bool dynamic = !params_.static_assignment;
    const auto stride = static_cast<std::size_t>(active_slots_);
    for (std::size_t pos = dynamic ? cursor_++ : static_cast<std::size_t>(slot);
         pos < params_.order.size(); pos = dynamic ? cursor_++ : pos + stride) {
      const int lw = params_.order[pos];
      if (params_.wg_dispatch_overhead_ns > 0) {
        co_await sim::delay(engine, params_.wg_dispatch_overhead_ns);
      }
      co_await params_.body(slot, lw);
      if (record_times_) finish_times_[lw] = engine.now();
    }
    if (params_.epilogue) co_await params_.epilogue(slot);
    done_.arrive();
  }

  sim::Engine& engine_;
  Params params_;
  sim::JoinCounter done_;
  std::size_t cursor_ = 0;
  int active_slots_ = 1;
  bool started_ = false;
  bool record_times_ = false;
  std::vector<TimeNs> finish_times_;
};

}  // namespace fcc::gpu
