// Host-side thread pool.
//
// The host's one thread team for "run N independent pieces, then join".
// sim::ShardedEngine runs each lookahead window as a batch over its shards,
// and bench/sweep_runner.h fans sweep points (one whole engine each) across
// it with index-ordered results. Follows CP.20/CP.23 (RAII joining, no
// detached threads).
//
// One submission path: run_batch publishes a whole index range as ONE
// descriptor and workers claim chunks with an atomic fetch_add, so a batch
// of N chunks costs one lock acquisition and zero per-chunk allocations.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fcc::par {

class ThreadPool {
 public:
  /// Starts exactly `num_workers` workers. With 0, run_batch runs every
  /// index on the calling thread, in index order.
  explicit ThreadPool(unsigned num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs `body(i)` for every i in [begin, end), `grain` indices per claimed
  /// chunk, and blocks until all complete. The caller's thread also works,
  /// so the pool is usable even with zero free workers. The batch is one
  /// shared descriptor: workers grab chunks via atomic fetch_add — no
  /// per-chunk queue entry, no per-chunk allocation, one lock round-trip
  /// per batch. `body` must be thread-safe for distinct indices. One batch
  /// at a time (benches and sweeps are structured that way); concurrent
  /// run_batch calls from different threads serialize on an internal mutex.
  ///
  /// If `body` throws (on any thread), no further chunks are claimed, the
  /// chunks already running finish, and run_batch rethrows the first
  /// exception on the calling thread. The pool stays usable.
  void run_batch(std::int64_t begin, std::int64_t end,
                 const std::function<void(std::int64_t)>& body,
                 std::int64_t grain = 1);

 private:
  /// The active batch, published under mu_ and claimed lock-free. `next`
  /// advances by `grain` per claim; a claim at or past `end` means the
  /// batch is drained.
  struct Batch {
    std::int64_t end = 0;
    std::int64_t grain = 1;
    const std::function<void(std::int64_t)>* body = nullptr;
    std::atomic<std::int64_t> next{0};
    std::atomic<int> active{0};  // workers inside run_chunks
    std::atomic<bool> failed{false};
    std::exception_ptr error;  // written once, by the thread that set failed
  };

  void worker_loop();

  /// Claims and runs chunks of `b` until it drains or `body` throws.
  static void run_chunks(Batch& b);

  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::vector<std::thread> workers_;
  Batch* batch_ = nullptr;  // non-null while a batch is being drained
  std::mutex batch_mu_;     // serializes concurrent run_batch callers
  bool stop_ = false;
};

}  // namespace fcc::par
