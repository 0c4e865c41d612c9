// Property tests for the serving layer's host-side policy objects: the
// streaming PercentileSketch (vs exact sorted-sample percentiles) and the
// continuous Batcher (batch bound, FIFO within class, priority order,
// aging-based starvation freedom, bounded-queue admission).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "serve/batcher.h"

namespace fcc::serve {
namespace {

// ---------------------------------------------------------------------------
// PercentileSketch vs exact sort
// ---------------------------------------------------------------------------

std::int64_t exact_nearest_rank(std::vector<std::int64_t> xs, double p) {
  std::sort(xs.begin(), xs.end());
  const auto rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil(p / 100.0 * static_cast<double>(xs.size()))));
  return xs[static_cast<std::size_t>(rank - 1)];
}

void expect_tracks_exact(const std::vector<std::int64_t>& xs) {
  PercentileSketch sketch;
  for (const std::int64_t x : xs) sketch.add(x);
  ASSERT_EQ(sketch.count(), static_cast<std::int64_t>(xs.size()));
  for (const double p : {0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    const std::int64_t exact = exact_nearest_rank(xs, p);
    const std::int64_t got = sketch.percentile(p);
    // The sketch reports the upper edge of the exact sample's log-linear
    // bucket: never below the exact value, and within one sub-bucket width
    // (value / 2^kSubBits) above it.
    EXPECT_GE(got, exact) << "p=" << p;
    EXPECT_LE(got, exact + exact / (1 << PercentileSketch::kSubBits) + 1)
        << "p=" << p;
  }
  EXPECT_EQ(sketch.min(), *std::min_element(xs.begin(), xs.end()));
  EXPECT_EQ(sketch.max(), *std::max_element(xs.begin(), xs.end()));
}

TEST(PercentileSketch, TracksExactSortOnUniformSamples) {
  Rng rng(101);
  std::vector<std::int64_t> xs;
  for (int i = 0; i < 5000; ++i) xs.push_back(rng.next_int(0, 999));
  expect_tracks_exact(xs);
}

TEST(PercentileSketch, TracksExactSortOnLogUniformSamples) {
  // Latency-shaped data: values spanning ns..seconds (9 decades).
  Rng rng(202);
  std::vector<std::int64_t> xs;
  for (int i = 0; i < 5000; ++i) {
    const double mag = rng.next_double(0.0, 9.0);
    xs.push_back(static_cast<std::int64_t>(std::pow(10.0, mag)));
  }
  expect_tracks_exact(xs);
}

TEST(PercentileSketch, TracksExactSortOnHeavyTail) {
  // Mostly-fast with a 1% slow tail — the p999-matters shape.
  Rng rng(303);
  std::vector<std::int64_t> xs;
  for (int i = 0; i < 10000; ++i) {
    xs.push_back(rng.next_double() < 0.99 ? rng.next_int(100, 200)
                                          : rng.next_int(50000, 100000));
  }
  expect_tracks_exact(xs);
}

TEST(PercentileSketch, SmallValuesAreExact) {
  // Values below 2*2^kSubBits map to unit-width buckets: no error at all.
  PercentileSketch sketch;
  for (std::int64_t v = 0; v < 64; ++v) sketch.add(v);
  EXPECT_EQ(sketch.percentile(50.0), 31);
  EXPECT_EQ(sketch.percentile(100.0), 63);
  EXPECT_EQ(sketch.min(), 0);
}

TEST(PercentileSketch, PercentilesAreMonotoneInP) {
  Rng rng(404);
  PercentileSketch sketch;
  for (int i = 0; i < 2000; ++i) sketch.add(rng.next_int(0, 1 << 20));
  std::int64_t prev = 0;
  for (const double p : {1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    const std::int64_t v = sketch.percentile(p);
    EXPECT_GE(v, prev) << "p=" << p;
    prev = v;
  }
}

TEST(PercentileSketch, MergeMatchesCombinedStream) {
  Rng rng(505);
  PercentileSketch a, b, combined;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t x = rng.next_int(0, 1 << 16);
    const std::int64_t y = rng.next_int(1 << 10, 1 << 24);
    a.add(x);
    b.add(y);
    combined.add(x);
    combined.add(y);
  }
  a.merge(b);
  EXPECT_EQ(a, combined);  // bit-identical state, not just close quantiles
}

TEST(PercentileSketch, EmptyAndIdentityProperties) {
  PercentileSketch s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.min(), 0);
  EXPECT_EQ(s.max(), 0);
  PercentileSketch t;
  t.merge(s);  // merging empty is a no-op
  EXPECT_EQ(t, s);
  s.add(42);
  PercentileSketch u;
  u.add(42);
  EXPECT_EQ(s, u);  // identical streams compare equal
}

// ---------------------------------------------------------------------------
// Batcher
// ---------------------------------------------------------------------------

BatchPolicy small_policy() {
  BatchPolicy p;
  p.max_batch = 4;
  p.window_ns = 100;
  p.queue_capacity = 6;
  p.starvation_limit = 3;
  return p;
}

TEST(Batcher, PartialBatchWaitsOutTheWindow) {
  Batcher b({0}, small_policy());
  ASSERT_TRUE(b.enqueue({0, 0, 1000}));
  EXPECT_FALSE(b.poll(1000).has_value());
  EXPECT_FALSE(b.poll(1099).has_value());
  const auto batch = b.poll(1100);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->reqs.size(), 1u);
  EXPECT_TRUE(b.empty());
}

TEST(Batcher, FullBatchDispatchesImmediately) {
  Batcher b({0}, small_policy());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(b.enqueue({i, 0, 50}));
  const auto batch = b.poll(50);  // window has NOT elapsed
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->reqs.size(), 4u);
}

TEST(Batcher, ZeroCapacityRejectsInsteadOfDividingOrHanging) {
  // queue_capacity = 0 is the fully-shedding server: every enqueue is an
  // admission reject and poll never produces.
  BatchPolicy p = small_policy();
  p.queue_capacity = 0;
  Batcher b({0, 1}, p);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(b.enqueue({i, i % 2, TimeNs(i * 10)}));
  }
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.queued(0), 0u);
  EXPECT_FALSE(b.poll(1'000'000).has_value());
}

TEST(Batcher, RejectsPastQueueCapacityAndRecoversAfterDrain) {
  Batcher b({0}, small_policy());
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(b.enqueue({i, 0, 0}));
  EXPECT_FALSE(b.enqueue({6, 0, 0}));  // admission reject, no state change
  EXPECT_EQ(b.queued(0), 6u);
  ASSERT_TRUE(b.poll(0).has_value());  // releases max_batch = 4
  EXPECT_EQ(b.queued(0), 2u);
  EXPECT_TRUE(b.enqueue({7, 0, 0}));
}

TEST(Batcher, LowerPriorityValueWinsAmongDispatchable) {
  Batcher b({1, 0}, small_policy());  // class 1 is the urgent one
  ASSERT_TRUE(b.enqueue({0, 0, 0}));
  ASSERT_TRUE(b.enqueue({1, 1, 0}));
  const auto first = b.poll(200);  // both windows elapsed
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->cls, 1);
  const auto second = b.poll(200);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->cls, 0);
}

TEST(Batcher, StarvedClassPreemptsHigherPriority) {
  BatchPolicy pol = small_policy();
  pol.max_batch = 2;
  pol.window_ns = 0;  // everything queued is immediately dispatchable
  Batcher b({0, 1}, pol);
  int id = 0;
  ASSERT_TRUE(b.enqueue({id++, 1, 0}));  // the low-priority victim
  int polls_until_victim = -1;
  for (int i = 0; i < 10; ++i) {
    // Keep the high-priority class dispatchable forever.
    ASSERT_TRUE(b.enqueue({id++, 0, 0}));
    ASSERT_TRUE(b.enqueue({id++, 0, 0}));
    const auto batch = b.poll(0);
    ASSERT_TRUE(batch.has_value());
    if (batch->cls == 1) {
      polls_until_victim = i;
      break;
    }
  }
  // Passed over starvation_limit (3) times, served on the next poll.
  EXPECT_EQ(polls_until_victim, 3);
}

TEST(Batcher, RandomizedMaxBatchFifoAndAdmissionProperties) {
  Rng rng(909);
  const BatchPolicy pol = small_policy();
  Batcher b({0, 1, 0}, pol);
  std::vector<std::deque<int>> admitted(3);  // expected FIFO per class
  TimeNs now = 0;
  int next_id = 0;
  auto check_batch = [&](const Batch& batch) {
    ASSERT_GE(batch.reqs.size(), 1u);
    ASSERT_LE(batch.reqs.size(), static_cast<std::size_t>(pol.max_batch));
    for (const Request& r : batch.reqs) {
      ASSERT_FALSE(admitted[static_cast<std::size_t>(batch.cls)].empty());
      // FIFO within class: ids come back in admission order.
      ASSERT_EQ(r.id, admitted[static_cast<std::size_t>(batch.cls)].front());
      admitted[static_cast<std::size_t>(batch.cls)].pop_front();
    }
  };
  for (int step = 0; step < 5000; ++step) {
    now += rng.next_int(0, 60);
    if (rng.next_double() < 0.6) {
      const int cls = static_cast<int>(rng.next_int(0, 2));
      const bool ok = b.enqueue({next_id, cls, now});
      // Admission is exactly "queue below capacity".
      ASSERT_EQ(ok, admitted[static_cast<std::size_t>(cls)].size() <
                        static_cast<std::size_t>(pol.queue_capacity));
      if (ok) admitted[static_cast<std::size_t>(cls)].push_back(next_id);
      ++next_id;
    } else if (const auto batch = b.poll(now)) {
      check_batch(*batch);
    }
  }
  now += pol.window_ns + 1;  // all remaining windows elapsed: drain
  while (const auto batch = b.poll(now)) check_batch(*batch);
  EXPECT_TRUE(b.empty());
  for (const auto& q : admitted) EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace fcc::serve
