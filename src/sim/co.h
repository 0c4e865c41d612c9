// Awaitable sub-coroutine (lazy task with symmetric transfer).
//
// `sim::Task` processes are detached top-level activities; `sim::Co` is a
// *subroutine*: the parent `co_await`s it and resumes when it finishes.
// A Co can also be started detached (`start`): it then frees its own frame
// at completion and reports through a callback, with no wrapper process —
// this is how gpu::KernelRun runs each persistent-kernel slot in one frame.
#pragma once

#include <coroutine>
#include <exception>
#include <utility>

namespace fcc::sim {

class [[nodiscard]] Co {
 public:
  /// Completion callback of a detached Co; runs after the frame is freed.
  using DoneFn = void (*)(void* arg);

  struct promise_type {
    DoneFn on_done = nullptr;  // set by start(): detached
    /// Detached: `on_done`'s argument. Awaited: the parent frame's address
    /// (null until awaited). The two uses never overlap, so they share the
    /// word.
    void* link = nullptr;

    Co get_return_object() {
      return Co(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<promise_type> h) const noexcept {
        const promise_type& p = h.promise();
        if (p.on_done != nullptr) {
          // Detached: nobody holds the handle, so the frame frees itself
          // before the callback can resume whoever waits on it.
          const DoneFn done = p.on_done;
          void* arg = p.link;
          h.destroy();
          done(arg);
          return std::noop_coroutine();
        }
        if (p.link == nullptr) return std::noop_coroutine();
        return std::coroutine_handle<>::from_address(p.link);
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() {}
    [[noreturn]] void unhandled_exception() { std::terminate(); }
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
    h_.promise().link = parent.address();
    return h_;  // symmetric transfer into the child
  }
  void await_resume() const noexcept {}

  /// Runs the coroutine detached: to its first suspension now, the rest
  /// from the engine. At completion it destroys its own frame, then calls
  /// `done(arg)`. Consumes the Co.
  void start(DoneFn done, void* arg) && {
    auto h = std::exchange(h_, {});
    h.promise().on_done = done;
    h.promise().link = arg;
    h.resume();
  }

 private:
  explicit Co(std::coroutine_handle<promise_type> h) : h_(h) {}
  std::coroutine_handle<promise_type> h_;
};

}  // namespace fcc::sim
