// Synchronization primitives for simulated processes.
//
// All wakeups are funneled through the engine's event queue (never a
// direct call from a notifier), so wake order is deterministic and a
// notifier's stack never nests a woken waiter. A waiter is a sim::Call:
// a call chain registers with wait_then(), a coroutine awaits wait(), one
// sim::suspend over wait_then(). A wakeup is the waiter's call event: no
// callable object, no allocation.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/engine.h"
#include "sim/task.h"

namespace fcc::sim {

/// One-shot event: processes wait until some other process sets it. Waiting
/// on an already-set OneShot does not suspend (still no queue round-trip:
/// the waiter already established its position by running).
class OneShot {
 public:
  explicit OneShot(Engine& e) : engine_(e) {}
  OneShot(const OneShot&) = delete;
  OneShot& operator=(const OneShot&) = delete;
  ~OneShot() { FCC_CHECK_MSG(waiters_.empty(), "OneShot destroyed with waiters"); }

  bool is_set() const { return set_; }

  /// Re-arms the event for another round (warm reuse); nobody may wait.
  void reset() {
    FCC_CHECK_MSG(waiters_.empty(), "OneShot reset with waiters");
    set_ = false;
  }

  void set() {
    if (set_) return;
    set_ = true;
    for (Call* c : waiters_) engine_.schedule_call_at(engine_.now(), c);
    waiters_.clear();
  }

  /// Runs `next` on `c` once the event is set. Returns false, scheduling
  /// nothing, if it already is.
  bool wait_then(Call& c, Call::Fn next) {
    if (set_) return false;
    c.fn = next;
    waiters_.push_back(&c);
    return true;
  }

  auto wait() {
    return suspend([this](Call& c, Call::Fn fn) { return wait_then(c, fn); });
  }

 private:
  Engine& engine_;
  bool set_ = false;
  std::vector<Call*> waiters_;
};

/// Broadcast condition: `notify_all()` wakes every process currently blocked
/// in `wait()`. There is no predicate built in — waiters re-check their own
/// predicate in a loop:
///
///   while (!ready()) co_await cond.wait();
///
/// Prefer a targeted primitive where the predicate is known at the notifier
/// (shmem::FlagArray threshold waiters, shmem::World::quiet): broadcasting
/// costs one no-op wakeup event per unsatisfied waiter per notify.
class Condition {
 public:
  explicit Condition(Engine& e) : engine_(e) {}
  Condition(const Condition&) = delete;
  Condition& operator=(const Condition&) = delete;
  ~Condition() {
    FCC_CHECK_MSG(waiters_.empty(), "Condition destroyed with waiters");
  }

  void notify_all() {
    for (Call* c : waiters_) engine_.schedule_call_at(engine_.now(), c);
    waiters_.clear();
  }

  /// Runs `next` on `c` at the next notify_all().
  bool wait_then(Call& c, Call::Fn next) {
    c.fn = next;
    waiters_.push_back(&c);
    return true;
  }

  auto wait() {
    return suspend([this](Call& c, Call::Fn fn) { return wait_then(c, fn); });
  }

  std::size_t num_waiters() const { return waiters_.size(); }

 private:
  Engine& engine_;
  std::vector<Call*> waiters_;
};

/// Join counter: tracks N outstanding sub-activities; `done` fires when all
/// have arrived. The canonical pattern for "kernel completes when every WG
/// slot finishes".
class JoinCounter {
 public:
  JoinCounter(Engine& e, int expected) : done_(e), remaining_(expected) {
    FCC_CHECK(expected >= 0);
    if (remaining_ == 0) done_.set();
  }

  void arrive() {
    FCC_CHECK(remaining_ > 0);
    if (--remaining_ == 0) done_.set();
  }

  auto wait() { return done_.wait(); }
  bool is_done() const { return done_.is_set(); }
  int remaining() const { return remaining_; }

 private:
  OneShot done_;
  int remaining_;
};

}  // namespace fcc::sim
