#include "parallel/thread_pool.h"

#include <algorithm>

namespace fcc::par {

ThreadPool::ThreadPool(unsigned num_workers) {
  workers_.reserve(num_workers);
  for (unsigned i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_chunks(Batch& b) {
  for (;;) {
    const std::int64_t lo =
        b.next.fetch_add(b.grain, std::memory_order_relaxed);
    if (lo >= b.end) return;
    const std::int64_t hi = std::min(lo + b.grain, b.end);
    try {
      for (std::int64_t i = lo; i < hi; ++i) (*b.body)(i);
    } catch (...) {
      // First failure wins; parking the cursor at `end` stops every
      // thread's next claim and keeps idle workers asleep.
      if (!b.failed.exchange(true, std::memory_order_relaxed)) {
        b.error = std::current_exception();
      }
      b.next.store(b.end, std::memory_order_relaxed);
      return;
    }
  }
}

void ThreadPool::run_batch(std::int64_t begin, std::int64_t end,
                           const std::function<void(std::int64_t)>& body,
                           std::int64_t grain) {
  if (begin >= end) return;
  std::lock_guard<std::mutex> batch_lock(batch_mu_);
  Batch b;
  b.end = end;
  b.grain = grain < 1 ? 1 : grain;
  b.body = &body;
  b.next.store(begin, std::memory_order_relaxed);
  {
    // One publish for the whole range — the only lock the batch takes.
    std::lock_guard<std::mutex> lock(mu_);
    batch_ = &b;
  }
  cv_task_.notify_all();
  // The caller drains chunks too: correct with zero workers, and the
  // publishing thread never just blocks while work remains.
  run_chunks(b);
  {
    // Unpublish, then wait for workers still inside run_chunks: `b` is a
    // stack frame, nothing may reference it after this returns. The
    // workers' release on `active` also publishes any `b.error` they set.
    std::unique_lock<std::mutex> lock(mu_);
    batch_ = nullptr;
    cv_idle_.wait(lock,
                  [&b] { return b.active.load(std::memory_order_acquire) == 0; });
  }
  if (b.error) std::rethrow_exception(b.error);
}

void ThreadPool::worker_loop() {
  for (;;) {
    Batch* batch = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] {
        // A published batch only wakes workers while chunks remain, so a
        // drained-but-not-yet-unpublished batch can't spin the pool.
        return stop_ ||
               (batch_ != nullptr &&
                batch_->next.load(std::memory_order_relaxed) < batch_->end);
      });
      if (batch_ == nullptr) return;  // stop_ and no batch to help with
      batch = batch_;
      batch->active.fetch_add(1, std::memory_order_relaxed);
    }
    run_chunks(*batch);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (batch->active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        cv_idle_.notify_all();
      }
    }
  }
}

}  // namespace fcc::par
