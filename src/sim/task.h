// Coroutine process type for the event engine.
//
// A simulated process is a C++20 coroutine returning `sim::Task`. Tasks are
// eager (start running when called) and detached (the frame destroys itself
// at completion); completion is communicated through sim primitives
// (OneShot, Condition, counters), never by touching the Task handle.
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

/// Awaitable that suspends the process for `dt` virtual nanoseconds. Even a
/// zero-length delay round-trips through the event queue, so that resume
/// order stays deterministic relative to other same-time events.
class [[nodiscard]] Delay {
 public:
  Delay(Engine& e, TimeNs dt) : engine_(e), dt_(dt) { FCC_CHECK(dt >= 0); }

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    engine_.schedule_resume_after(dt_, h);
  }
  void await_resume() const noexcept {}

 private:
  Engine& engine_;
  TimeNs dt_;
};

inline Delay delay(Engine& e, TimeNs dt) { return Delay(e, dt); }

/// Awaitable that suspends until absolute time `t` (no-op if in the past).
inline Delay delay_until(Engine& e, TimeNs t) {
  return Delay(e, t > e.now() ? t - e.now() : 0);
}

}  // namespace fcc::sim
