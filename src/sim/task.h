// Coroutine process type for the event engine.
//
// A simulated process is a C++20 coroutine returning `sim::Task`. Tasks are
// eager (start running when called) and detached (the frame destroys itself
// at completion); completion is communicated through sim primitives
// (OneShot, Condition, counters), never by touching the Task handle.
//
// A process waits through one awaiter, suspend(), over a wait primitive's
// call form (the engine call a gpu::KernelRun slot's chain uses for the
// same wait), so every wakeup is a sim::Call event.
//
// Any process whose first parameter is `Engine&` is automatically registered
// with that engine, so Engine::live_tasks() can detect deadlocks: a drained
// event queue with live tasks means someone is suspended on a condition that
// will never fire.
#pragma once

#include <coroutine>
#include <exception>
#include <utility>

#include "sim/engine.h"

namespace fcc::sim {

class Task {  // intentionally discardable: processes are fire-and-forget
 public:
  struct promise_type {
    Engine* engine = nullptr;

    promise_type() = default;

    // Free function / lambda whose first argument is Engine&.
    template <typename... Args>
    explicit promise_type(Engine& e, Args&&...) : engine(&e) {
      e.task_started();
    }

    // Member coroutine: implicit object parameter first, then Engine&.
    template <typename Self, typename... Args>
    promise_type(Self&&, Engine& e, Args&&...) : engine(&e) {
      e.task_started();
    }

    Task get_return_object() { return Task{}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {
      if (engine != nullptr) engine->task_finished();
    }
    [[noreturn]] void unhandled_exception() {
      // Simulation processes encode failures in results; an escaping
      // exception is a library bug and diagnosing at the throw site beats
      // unwinding through the scheduler.
      std::terminate();
    }
  };
};

/// The awaiter of suspend(): the sim::Call that resumes the awaiting
/// coroutine, embedded in its frame.
template <typename Start>
class [[nodiscard]] Suspend : Call {
 public:
  explicit Suspend(Start start) : Call{&resume}, start_(std::move(start)) {}

  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> h) {
    h_ = h;
    return start_(*this, &resume);
  }
  void await_resume() const noexcept {}

 private:
  static void resume(Call* c) { static_cast<Suspend*>(c)->h_.resume(); }

  Start start_;
  std::coroutine_handle<> h_;
};

/// Awaits a wait primitive's call form: `start(c, fn)` arranges for the
/// engine to run `fn` on `c` when the wait ends and returns true, or
/// returns false, scheduling nothing, when there is nothing to wait for;
/// the coroutine then goes on without a queue round-trip. Every coroutine
/// wait (delay, Device::busy_wait, World::issue, FlagArray::wait_ge,
/// OneShot::wait, ...) is one suspend() over its call form, so it fires
/// the event a call chain waiting the same way would fire.
template <typename Start>
Suspend<Start> suspend(Start start) {
  return Suspend<Start>(std::move(start));
}

/// Suspends the process for `dt` (>= 0) virtual nanoseconds. Even a
/// zero-length delay round-trips through the event queue, so that resume
/// order stays deterministic relative to other same-time events.
inline auto delay(Engine& e, TimeNs dt) {
  return suspend([&e, dt](Call& c, Call::Fn fn) {
    e.call_after(dt, c, fn);
    return true;
  });
}

/// Suspends until absolute time `t` (a zero-length delay if it is past).
inline auto delay_until(Engine& e, TimeNs t) {
  return delay(e, t > e.now() ? t - e.now() : 0);
}

}  // namespace fcc::sim
