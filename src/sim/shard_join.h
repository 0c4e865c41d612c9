// Cross-shard join with exact completion time.
//
// The fused-operator runtime's core rendezvous is "driver suspends until
// every per-PE body is done, then resumes at the instant the last one
// finished". On a serial engine a JoinCounter does this for free: the last
// arrive() fires at the global max completion time, so the OneShot resume
// lands exactly there. On a sharded machine the bodies finish on different
// shards whose clocks are only window-synchronized, and the driver's shard
// has already been parked at the window deadline by run_until — the resume
// must be scheduled at max(arrival times) *behind* the home frontier.
//
// ShardJoin counts every arrival on the home shard's thread or at a barrier:
//
//   * A home-shard arrival counts directly, in its window, on the home
//     shard's own thread.
//   * A remote arrival posts a barrier call (ShardedEngine::post_at_barrier)
//     that counts it at the next barrier, with every shard stopped.
//   * The last count schedules the driver's waiting call at the arrivals'
//     max time through Engine::schedule_call_at_unchecked: in-window that
//     max is the home shard's now; at a barrier it may sit behind the home
//     frontier.
//
// Which count is last therefore follows from simulated time alone, and so
// do the resume's window and its slot in the home queue, never from which
// thread reached its arrival first. No atomics: in-window counts run only
// on the home thread, barrier counts only while it is parked. The driver
// waits right after spawning the bodies, a kernel launch before any can
// arrive, so its call is registered by the last count.
//
// On a serial machine every arrival is home-shard and the code path reduces
// to "last arrive schedules the driver's call at now" — the exact event a
// JoinCounter's OneShot emits, so serial timing is unchanged.
//
// One-shot: construct a fresh ShardJoin per run (the fused runtime does).
#pragma once

#include <algorithm>

#include "common/check.h"
#include "common/types.h"
#include "sim/sharded_engine.h"
#include "sim/task.h"

namespace fcc::sim {

class ShardJoin {
 public:
  ShardJoin(ShardedEngine& se, int home_shard, int num_arrivals)
      : se_(se), home_shard_(home_shard), remaining_(num_arrivals) {
    FCC_CHECK(num_arrivals >= 1);
    FCC_CHECK(home_shard >= 0 && home_shard < se.num_shards());
  }
  ShardJoin(const ShardJoin&) = delete;
  ShardJoin& operator=(const ShardJoin&) = delete;

  /// One arrival from `shard` at that shard's local time `t`. Must be
  /// called from the shard's owning thread (body coroutines qualify).
  void arrive(int shard, TimeNs t) {
    if (shard == home_shard_) {
      count(t);
    } else {
      se_.post_at_barrier(shard, t, [this, t] { count(t); });
    }
  }

  /// Registered exactly once, by the driver, on the home shard: runs
  /// `next` on `c` at max(arrival times), possibly rewinding the home
  /// frontier.
  bool wait_then(Call& c, Call::Fn next) {
    c.fn = next;
    call_ = &c;
    return true;
  }

  auto wait() {
    return suspend([this](Call& c, Call::Fn fn) { return wait_then(c, fn); });
  }

 private:
  void count(TimeNs t) {
    t_max_ = std::max(t_max_, t);
    if (--remaining_ != 0) return;
    FCC_CHECK_MSG(call_ != nullptr, "ShardJoin completed before its driver "
                                    "waited on it");
    se_.shard(home_shard_).schedule_call_at_unchecked(t_max_, call_);
  }

  ShardedEngine& se_;
  int home_shard_;
  int remaining_;
  TimeNs t_max_ = 0;
  Call* call_ = nullptr;
};

}  // namespace fcc::sim
