// ThreadPool::run_batch correctness under contention.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "parallel/thread_pool.h"

namespace fcc::par {
namespace {

TEST(RunBatch, CoversEveryIndexExactlyOnceAcrossGrains) {
  ThreadPool pool(4);
  for (const std::int64_t grain : {1, 3, 64, 10000}) {
    std::vector<std::atomic<int>> hits(3001);
    std::function<void(std::int64_t)> body = [&](std::int64_t i) {
      hits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
    };
    pool.run_batch(0, 3001, body, grain);
    for (auto& h : hits) ASSERT_EQ(h.load(), 1) << "grain=" << grain;
  }
}

TEST(RunBatch, EmptyAndReversedRangesAreNoops) {
  ThreadPool pool(2);
  int touched = 0;
  std::function<void(std::int64_t)> body = [&](std::int64_t) { ++touched; };
  pool.run_batch(5, 5, body);
  pool.run_batch(9, 3, body);
  EXPECT_EQ(touched, 0);
}

TEST(RunBatch, CallerDrainsWithSingleWorkerPool) {
  // A 1-thread pool still completes: the calling thread claims chunks too.
  ThreadPool pool(1);
  std::atomic<std::int64_t> sum{0};
  std::function<void(std::int64_t)> body = [&](std::int64_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  };
  pool.run_batch(0, 1000, body, /*grain=*/7);
  EXPECT_EQ(sum.load(), 999LL * 1000 / 2);
}

TEST(RunBatch, ZeroWorkerPoolRunsOnCallerInIndexOrder) {
  ThreadPool pool(0);
  const auto caller = std::this_thread::get_id();
  std::vector<std::int64_t> order;
  bool all_on_caller = true;
  std::function<void(std::int64_t)> body = [&](std::int64_t i) {
    all_on_caller = all_on_caller && std::this_thread::get_id() == caller;
    order.push_back(i);
  };
  pool.run_batch(3, 40, body, /*grain=*/4);
  std::vector<std::int64_t> expected;
  for (std::int64_t i = 3; i < 40; ++i) expected.push_back(i);
  EXPECT_EQ(order, expected);
  EXPECT_TRUE(all_on_caller);
}

TEST(RunBatch, ReusableBackToBack) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  std::function<void(std::int64_t)> body = [&](std::int64_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  };
  for (int wave = 0; wave < 4; ++wave) {
    pool.run_batch(0, 250, body, 8);
    EXPECT_EQ(count.load(), (wave + 1) * 250);
  }
}

TEST(RunBatch, ThrowingBodyRethrowsOnCallerAndPoolStaysUsable) {
  // One round per throwing side: the calling thread throws while a worker
  // is inside `body`, then a worker throws while the caller is. Either way
  // run_batch rethrows that exception, and no `body` call outlives it.
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  const auto wait_for = [](const std::atomic<bool>& flag) {
    for (int ms = 0; ms < 5000 && !flag.load(); ++ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  for (const bool caller_throws : {true, false}) {
    const std::string what = caller_throws ? "caller threw" : "worker threw";
    std::atomic<bool> other_inside{false};
    std::atomic<bool> thrown{false};
    std::atomic<int> calls{0};
    std::function<void(std::int64_t)> body = [&](std::int64_t) {
      calls.fetch_add(1);
      if ((std::this_thread::get_id() == caller) == caller_throws) {
        wait_for(other_inside);
        thrown.store(true);
        throw std::runtime_error(what);
      }
      // Hold this chunk until the other side has thrown, and a little past.
      other_inside.store(true);
      wait_for(thrown);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };
    try {
      pool.run_batch(0, 64, body);
      ADD_FAILURE() << "run_batch swallowed: " << what;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), what);
    }
    const int calls_at_return = calls.load();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(calls.load(), calls_at_return) << what;
  }
  // The same pool then runs a clean batch to completion.
  std::vector<std::atomic<int>> hits(500);
  std::function<void(std::int64_t)> body = [&](std::int64_t i) {
    hits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
  };
  pool.run_batch(0, 500, body, 4);
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(RunBatch, ConcurrentCallersSerialize) {
  // Two threads each running their own batch through one pool must both
  // complete correctly (batches serialize on an internal mutex).
  ThreadPool pool(4);
  std::atomic<std::int64_t> sum{0};
  std::function<void(std::int64_t)> body = [&](std::int64_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  };
  std::thread a([&] { pool.run_batch(0, 2000, body, 16); });
  std::thread b([&] { pool.run_batch(0, 2000, body, 16); });
  a.join();
  b.join();
  EXPECT_EQ(sum.load(), 2 * (1999LL * 2000 / 2));
}

}  // namespace
}  // namespace fcc::par
