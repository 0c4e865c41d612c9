// Awaitable sub-coroutine (lazy task with symmetric transfer).
//
// `sim::Task` processes are detached top-level activities; `sim::Co` is a
// *subroutine*: the parent `co_await`s it and resumes when it finishes.
// A Co can also be started detached (`start`): it then frees its own frame
// at completion and reports through a callback, with no wrapper process —
// this is how gpu::KernelRun runs a slot's tail (what the slot waits for
// after its work queue drains).
//
// A FrameBlock places the frames of the detached Co's it starts back to
// back in one allocation, so a kernel launch costs one allocation for its
// tails however many slots start one. No frame gets a header: a block
// frame's completion callback is the block's own, which is how the frame
// knows to leave its memory to the block.
//
// An exception that escapes a Co's body propagates to whoever resumed it
// (the engine's run loop, for a Co waiting on an event), leaving the frame
// ended at its final suspend point.
#pragma once

#include <coroutine>
#include <cstddef>
#include <new>
#include <utility>

namespace fcc::sim {

class FrameBlock;

namespace detail {
/// Set by FrameBlock::start for the one Co it creates: the frame's
/// allocation asks that block first.
inline thread_local FrameBlock* placing_block = nullptr;
/// Set by a finishing block frame for its own destroy(): the frame's
/// memory stays with its block.
inline thread_local bool keep_frame = false;
}  // namespace detail

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

    static void* operator new(std::size_t n);
    static void operator delete(void* p, std::size_t n) noexcept {
      if (detail::keep_frame) {
        detail::keep_frame = false;
        return;
      }
      ::operator delete(p, n);
    }

    Co get_return_object() {
      return Co(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<promise_type> h) const noexcept;
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

/// One allocation for the frames of up to `frames` detached Co's, all
/// reporting to one completion callback. The block is allocated by the
/// first frame, `frames` times that frame's size; every later frame of the
/// same size takes the next stride. A frame of another size, or past
/// `frames`, goes to the heap as usual, and so do the frames the Co's
/// await. A frame's size is a multiple of its alignment, so every stride
/// is aligned as the first frame is. A placed frame is never freed on its
/// own, so creating one must not fail after its allocation: its
/// coroutine's parameters must copy without throwing.
///
/// The block is freed with the FrameBlock once every frame in it has
/// finished. A FrameBlock destroyed earlier leaves the block allocated:
/// its suspended frames may still have engine events pointing into it.
class FrameBlock {
 public:
  FrameBlock(int frames, Co::DoneFn done, void* arg)
      : capacity_(frames), done_(done), arg_(arg) {}
  FrameBlock(const FrameBlock&) = delete;
  FrameBlock& operator=(const FrameBlock&) = delete;
  ~FrameBlock() {
    if (live_ == 0) ::operator delete(base_);
  }

  /// Creates a Co with `make()`, its frame in the block if it fits, and
  /// starts it detached (Co::start) with the block's callback.
  template <typename Make>
  void start(Make&& make) {
    const int placed = used_;
    detail::placing_block = this;
    Co co = [&] {
      try {
        return std::forward<Make>(make)();
      } catch (...) {
        detail::placing_block = nullptr;
        throw;
      }
    }();
    detail::placing_block = nullptr;
    if (used_ == placed) {
      std::move(co).start(done_, arg_);
    } else {
      ++live_;
      std::move(co).start(&FrameBlock::frame_done, this);
    }
  }

 private:
  friend struct Co::promise_type;

  /// The next stride for a frame of `n` bytes, or null if it does not fit.
  void* place(std::size_t n) {
    if (base_ == nullptr) {
      base_ = static_cast<std::byte*>(
          ::operator new(n * static_cast<std::size_t>(capacity_)));
      stride_ = n;
    } else if (n != stride_ || used_ == capacity_) {
      return nullptr;
    }
    return base_ + stride_ * static_cast<std::size_t>(used_++);
  }

  /// Completion of a frame in the block (already destroyed).
  static void frame_done(void* block) {
    auto* b = static_cast<FrameBlock*>(block);
    --b->live_;
    b->done_(b->arg_);  // may destroy the FrameBlock
  }

  std::byte* base_ = nullptr;
  std::size_t stride_ = 0;
  int capacity_;
  int used_ = 0;  // frames placed
  int live_ = 0;  // frames placed and not yet finished
  Co::DoneFn done_;
  void* arg_;
};

inline void* Co::promise_type::operator new(std::size_t n) {
  if (FrameBlock* b = detail::placing_block) {
    detail::placing_block = nullptr;
    if (void* p = b->place(n)) return p;
  }
  return ::operator new(n);
}

inline std::coroutine_handle<> Co::promise_type::FinalAwaiter::await_suspend(
    std::coroutine_handle<promise_type> h) const noexcept {
  const promise_type& p = h.promise();
  if (p.on_done != nullptr) {
    // Detached: nobody holds the handle, so the frame frees itself (or,
    // in a FrameBlock, only ends) before the callback can resume whoever
    // waits on it.
    const DoneFn done = p.on_done;
    void* arg = p.link;
    if (done == &FrameBlock::frame_done) detail::keep_frame = true;
    h.destroy();
    done(arg);
    return std::noop_coroutine();
  }
  if (p.link == nullptr) return std::noop_coroutine();
  return std::coroutine_handle<>::from_address(p.link);
}

}  // namespace fcc::sim
