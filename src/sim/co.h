// Awaitable sub-coroutine (lazy task with symmetric transfer).
//
// `sim::Task` processes are detached top-level activities; `sim::Co` is a
// *subroutine*: the parent `co_await`s it and resumes when it finishes.
// A Co runs only when awaited; a persistent-kernel slot is not a coroutine
// at all but a chain of engine calls on its record (gpu::KernelRun).
//
// An exception that escapes a Co's body propagates to whoever resumed it
// (the engine's run loop, for a Co waiting on an event), leaving the frame
// ended at its final suspend point.
#pragma once

#include <coroutine>
#include <utility>

namespace fcc::sim {

class [[nodiscard]] Co {
 public:
  struct promise_type {
    std::coroutine_handle<> parent;  // set when awaited

    Co get_return_object() {
      return Co(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<promise_type> h) const noexcept {
        return h.promise().parent;
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() {}
    [[noreturn]] void unhandled_exception() { throw; }
  };

  Co(Co&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  Co(const Co&) = delete;
  Co& operator=(const Co&) = delete;
  ~Co() {
    if (h_) h_.destroy();
  }

  // Awaitable interface: start the child, remember the parent.
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) {
    h_.promise().parent = parent;
    return h_;  // symmetric transfer into the child
  }
  void await_resume() const noexcept {}

 private:
  explicit Co(std::coroutine_handle<promise_type> h) : h_(h) {}
  std::coroutine_handle<promise_type> h_;
};

}  // namespace fcc::sim
