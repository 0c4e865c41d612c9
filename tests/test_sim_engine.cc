// Engine semantics: time monotonicity, same-time FIFO, coroutine tracking.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <functional>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/co.h"
#include "sim/engine.h"
#include "sim/task.h"

namespace fcc::sim {
namespace {

TEST(Engine, StartsAtZeroAndIdle) {
  Engine e;
  EXPECT_EQ(e.now(), 0);
  EXPECT_TRUE(e.idle());
  EXPECT_EQ(e.run(), 0u);
}

TEST(Engine, EventsFireInTimeOrder) {
  Engine e;
  std::vector<int> seen;
  e.schedule_at(30, [&] { seen.push_back(3); });
  e.schedule_at(10, [&] { seen.push_back(1); });
  e.schedule_at(20, [&] { seen.push_back(2); });
  EXPECT_EQ(e.run(), 3u);
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30);
}

TEST(Engine, SameTimeEventsFireInScheduleOrder) {
  Engine e;
  std::vector<int> seen;
  for (int i = 0; i < 100; ++i) {
    e.schedule_at(5, [&seen, i] { seen.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(seen[static_cast<size_t>(i)], i);
}

TEST(Engine, NestedSchedulingFromCallbacks) {
  Engine e;
  std::vector<TimeNs> fired;
  e.schedule_at(10, [&] {
    fired.push_back(e.now());
    e.schedule_after(5, [&] { fired.push_back(e.now()); });
  });
  e.run();
  EXPECT_EQ(fired, (std::vector<TimeNs>{10, 15}));
}

TEST(Engine, SchedulingIntoThePastThrows) {
  Engine e;
  e.schedule_at(10, [] {});
  e.run();
  EXPECT_THROW(e.schedule_at(5, [] {}), std::logic_error);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine e;
  int count = 0;
  for (TimeNs t = 10; t <= 100; t += 10) {
    e.schedule_at(t, [&] { ++count; });
  }
  e.run_until(50);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(e.now(), 50);
  e.run();
  EXPECT_EQ(count, 10);
}

Task simple_proc(Engine& e, std::vector<TimeNs>& log) {
  log.push_back(e.now());
  co_await delay(e, 100);
  log.push_back(e.now());
  co_await delay(e, 0);  // zero-delay still round-trips the queue
  log.push_back(e.now());
}

TEST(Task, DelaysAdvanceVirtualTime) {
  Engine e;
  std::vector<TimeNs> log;
  simple_proc(e, log);
  EXPECT_EQ(e.live_tasks(), 1);  // suspended at first delay
  e.run();
  EXPECT_EQ(log, (std::vector<TimeNs>{0, 100, 100}));
  EXPECT_EQ(e.live_tasks(), 0);
}

Task spawner(Engine& e, int depth, int& count) {
  ++count;
  if (depth > 0) {
    co_await delay(e, 1);
    spawner(e, depth - 1, count);
    spawner(e, depth - 1, count);
  }
  co_return;
}

TEST(Task, RecursiveSpawningTracksLiveness) {
  Engine e;
  int count = 0;
  spawner(e, 10, count);
  e.run();
  EXPECT_EQ(count, (1 << 11) - 1);
  EXPECT_EQ(e.live_tasks(), 0);
}

Co child(Engine& e, std::vector<int>& log, int id) {
  log.push_back(id);
  co_await delay(e, 10);
  log.push_back(id + 100);
}

Task parent_proc(Engine& e, std::vector<int>& log) {
  co_await child(e, log, 1);
  co_await child(e, log, 2);
  log.push_back(999);
}

TEST(Co, SubroutinesRunToCompletionBeforeParentContinues) {
  Engine e;
  std::vector<int> log;
  parent_proc(e, log);
  e.run();
  EXPECT_EQ(log, (std::vector<int>{1, 101, 2, 102, 999}));
  EXPECT_EQ(e.now(), 20);
  EXPECT_EQ(e.live_tasks(), 0);
}

Co leaf(Engine& e) { co_await delay(e, 1); }

Co middle(Engine& e, int depth) {
  if (depth == 0) {
    co_await leaf(e);
  } else {
    co_await middle(e, depth - 1);
  }
}

Task deep_proc(Engine& e, bool& done) {
  co_await middle(e, 200);
  done = true;
}

TEST(Co, DeepNestingCompletes) {
  Engine e;
  bool done = false;
  deep_proc(e, done);
  e.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(e.now(), 1);
}

TEST(Engine, EventsScheduledFromCallbacksInterleaveInGlobalOrder) {
  // Events scheduled from inside callbacks must interleave with the
  // already-queued ones in exact (time, seq) order.
  Engine e;
  std::vector<int> seen;
  e.schedule_at(10, [&] {
    seen.push_back(1);
    e.schedule_at(15, [&] { seen.push_back(2); });  // while draining
    e.schedule_at(40, [&] { seen.push_back(5); });
  });
  e.schedule_at(20, [&] { seen.push_back(3); });
  e.schedule_at(30, [&] { seen.push_back(4); });
  EXPECT_EQ(e.run(), 5u);
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Engine, SameTimeFifoHoldsAcrossAReopenedBucket) {
  Engine e;
  std::vector<int> seen;
  e.schedule_at(5, [&] {
    seen.push_back(0);
    // Appended to the t=5 bucket while it drains: after the already-queued
    // t=5 events (larger insertion sequence), in their own schedule order.
    e.schedule_at(5, [&] { seen.push_back(3); });
    e.schedule_at(5, [&] {
      seen.push_back(4);
      // The last t=5 event: its bucket closed before it ran, so these
      // reopen t=5 behind every t=5 event that already fired.
      e.schedule_at(5, [&] { seen.push_back(5); });
      e.schedule_at(5, [&] { seen.push_back(6); });
    });
  });
  e.schedule_at(5, [&] { seen.push_back(1); });
  e.schedule_at(5, [&] { seen.push_back(2); });
  e.schedule_at(6, [&] { seen.push_back(7); });
  e.run();
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Engine, PooledNodesAreRecycledAcrossWaves) {
  Engine e;
  long sink = 0;
  for (int wave = 0; wave < 50; ++wave) {
    for (int i = 0; i < 100; ++i) {
      e.schedule_after(i, [&sink] { ++sink; });
    }
    e.run();
  }
  EXPECT_EQ(sink, 50 * 100);
  // The slab never grows past one wave's worth of simultaneously-pending
  // callbacks: freed nodes are reused, not abandoned.
  EXPECT_LE(e.slab_nodes(), 100u);
}

TEST(Engine, PendingCountsNearAndFarEvents) {
  Engine e;
  e.schedule_at(1, [] {});
  EXPECT_EQ(e.pending(), 1u);
  e.schedule_at(2, [] {});
  EXPECT_EQ(e.pending(), 2u);
  e.run_until(1);
  EXPECT_EQ(e.pending(), 1u);
  for (int i = 0; i < 40; ++i) e.schedule_at(3, [] {});  // spans chunks
  EXPECT_EQ(e.pending(), 41u);
  for (int i = 0; i < 20; ++i) e.schedule_at(1'000'000, [] {});  // far
  EXPECT_EQ(e.pending(), 61u);
  e.run_until(2);
  EXPECT_EQ(e.pending(), 60u);
  e.run();
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, RewindIntoAnExhaustedBucketFiresAtItsTime) {
  Engine e;
  int count = 0;
  std::vector<TimeNs> fired_at;
  e.schedule_at(10, [&] {
    ++count;
    e.schedule_at(20, [&] { ++count; });  // scheduled while draining
    e.schedule_at(60, [&] { ++count; });
  });
  e.schedule_at(50, [&] { ++count; });
  EXPECT_EQ(e.run_until(50), 3u);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(e.now(), 50);
  // The t=20 bucket has drained and closed; a rewind behind the window
  // frontier reopens it, fires first, and moves now() back to 20.
  e.schedule_at_unchecked(20, [&] { fired_at.push_back(e.now()); });
  EXPECT_EQ(e.next_event_time(), 20);
  EXPECT_EQ(e.run_until(50), 1u);
  EXPECT_EQ(fired_at, (std::vector<TimeNs>{20}));
  EXPECT_EQ(e.now(), 50);
  e.run();
  EXPECT_EQ(count, 4);
  EXPECT_EQ(e.now(), 60);
}

TEST(Engine, AnEventPushedFarAheadFiresBeforeLaterPushesAtItsTime) {
  // Event 1 is pushed while T lies more than 2^16 ns ahead. Time then
  // moves to within 2^16 ns of T three ways: a tick chain firing every
  // 1000 ns, an event firing just before T, and a run_until parked there.
  // Each pushes another event at T; all fire in push order.
  constexpr TimeNs kT = 3 * (TimeNs{1} << 16) + 7;
  Engine e;
  std::vector<int> seen;
  const auto at_t = [&](int id) {
    e.schedule_at(kT, [&seen, id] { seen.push_back(id); });
  };
  at_t(1);
  std::function<void()> tick = [&] {
    if (e.now() == kT - 1000) at_t(2);
    if (e.now() < kT - 1000) e.schedule_after(1000, tick);
  };
  e.schedule_at(kT % 1000, tick);
  e.schedule_at(kT - 100, [&] { at_t(3); });
  e.run_until(kT - 50);
  EXPECT_EQ(e.next_event_time(), kT);
  at_t(4);
  EXPECT_EQ(e.pending(), 4u);
  e.run();
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(e.now(), kT);
}

TEST(Engine, RewindToTheTimeOfADrainedFarEventFiresThere) {
  // The far event's bucket drains at kT and is recycled for kT + 20; a
  // rewind to kT must not find it again.
  constexpr TimeNs kT = 5 * (TimeNs{1} << 16);
  Engine e;
  std::vector<std::pair<int, TimeNs>> seen;
  const auto log = [&](int id) {
    return [&seen, &e, id] { seen.emplace_back(id, e.now()); };
  };
  e.schedule_at(kT, log(1));
  e.run_until(kT + 10);
  e.schedule_at(kT + 20, log(2));
  e.schedule_at_unchecked(kT, log(3));
  e.run();
  EXPECT_EQ(seen, (std::vector<std::pair<int, TimeNs>>{
                      {1, kT}, {3, kT}, {2, kT + 20}}));
}

Task wave_worker(Engine& e, int steps, int stride) {
  for (int i = 0; i < steps; ++i) co_await delay(e, 1 + (i % stride));
}

/// Steps of 2^16 + 1, 5 and 3 * 2^16 + 7 ns: pushes past the 2^16 ns edge
/// ahead of now(), over a span that wraps 2^16 several times.
Task far_worker(Engine& e, int steps) {
  constexpr TimeNs kEdge = TimeNs{1} << 16;
  constexpr TimeNs kDt[3] = {kEdge + 1, 5, 3 * kEdge + 7};
  for (int i = 0; i < steps; ++i) co_await delay(e, kDt[i % 3]);
}

TEST(Engine, QueuePoolsStopGrowingAcrossRerunsAndReturnOnDrain) {
  // 64 workers in lock-step waves: many events per timestamp (multi-chunk
  // buckets) plus single-event timestamps, and one worker stepping more
  // than 2^16 ns at a time. Re-running the same workload on the drained
  // engine must reuse the pooled storage instead of growing it; run()
  // returns it once the queue drains.
  Engine e;
  const auto workload = [&e] {
    for (int w = 0; w < 64; ++w) wave_worker(e, 200, 1 + w % 5);
    far_worker(e, 12);
  };
  constexpr TimeNs kHorizon = 2'000'000;
  workload();
  e.run_until(e.now() + kHorizon);
  ASSERT_TRUE(e.idle());
  const std::size_t watermark = e.queue_bytes();
  EXPECT_GT(watermark, 0u);
  for (int rerun = 0; rerun < 5; ++rerun) {
    workload();
    e.run_until(e.now() + kHorizon);
    ASSERT_TRUE(e.idle());
    EXPECT_EQ(e.queue_bytes(), watermark) << "rerun " << rerun;
  }
  workload();
  e.run();
  EXPECT_EQ(e.queue_bytes(), 0u);
  EXPECT_EQ(e.live_tasks(), 0);
}

TEST(Engine, LargeCallbacksFallBackToTheHeapPath) {
  // A callable bigger than the node's inline buffer still works (one heap
  // allocation, API unchanged).
  Engine e;
  std::array<std::uint64_t, 16> big{};  // 128 bytes captured by value
  big[15] = 42;
  std::uint64_t out = 0;
  e.schedule_at(1, [big, &out] { out = big[15]; });
  e.run();
  EXPECT_EQ(out, 42u);
}

TEST(Engine, DestructorReleasesUnfiredCallbacks) {
  // Scheduled-but-never-run callables (both inline and heap-fallback) are
  // destroyed with the engine; shared_ptr use counts prove it. They are
  // spread over inline bucket heads and multi-chunk buckets at many
  // timestamps, some partly drained, near and more than 2^16 ns ahead.
  auto tracer = std::make_shared<int>(7);
  std::weak_ptr<int> weak = tracer;
  {
    Engine e;
    e.schedule_at(5, [t = tracer] { (void)t; });
    {
      Engine single;
      single.schedule_at(1, [t = tracer] { (void)t; });
    }
    std::array<std::uint64_t, 16> big{};
    e.schedule_at(6, [t = tracer, big] { (void)t; (void)big; });
    for (TimeNs at = 10; at < 200; ++at) {
      for (TimeNs k = 0; k < at % 40; ++k) {
        e.schedule_at(at, [t = tracer] { (void)t; });
        e.schedule_at(at * 1000, [t = tracer] { (void)t; });
      }
    }
    e.run_until(30);
    tracer.reset();
    EXPECT_FALSE(weak.expired());
  }
  EXPECT_TRUE(weak.expired());
}

Task delay_hops(Engine& e, int& hops) {
  for (int i = 0; i < 3; ++i) {
    co_await delay(e, 7);
    ++hops;
  }
}

TEST(Engine, CoroutineWakeupAdvancesTimeLikeAnyEvent) {
  Engine e;
  int hops = 0;
  delay_hops(e, hops);
  e.run();
  EXPECT_EQ(hops, 3);
  EXPECT_EQ(e.now(), 21);
  // A coroutine's wakeup is a call embedded in its frame: it never takes a
  // pooled callback node.
  EXPECT_EQ(e.slab_nodes(), 0u);
}

/// A flag target that logs every update it receives as (index, amount).
struct RecordingTarget final : FlagTarget {
  using Log = std::vector<std::pair<std::uint32_t, std::uint32_t>>;
  void apply_update(std::uint32_t index, std::uint32_t amount) override {
    log.emplace_back(index, amount);
  }
  Log log;
};

TEST(Engine, FlagEventsTakeTheirPushSlotAndNoNode) {
  Engine e;
  std::vector<std::string> seen;
  struct Spy final : FlagTarget {
    explicit Spy(std::vector<std::string>& s) : seen(s) {}
    void apply_update(std::uint32_t index, std::uint32_t amount) override {
      seen.push_back("flag " + std::to_string(index) + "+" +
                     std::to_string(amount));
    }
    std::vector<std::string>& seen;
  } spy(seen);
  e.schedule_flag_at(10, FlagUpdate::set(spy, 7));
  e.schedule_at(10, [&] { seen.push_back("callback"); });
  e.schedule_flag_at(10, FlagUpdate::add(spy, 3, FlagUpdate::kMaxAmount));
  e.schedule_flag_at(4, FlagUpdate::add(spy, 0xFFFFFFFFu, 1));
  EXPECT_EQ(e.pending(), 4u);
  EXPECT_EQ(e.run(), 4u);
  EXPECT_EQ(seen, (std::vector<std::string>{"flag 4294967295+1", "flag 7+0",
                                            "callback", "flag 3+65535"}));
  EXPECT_EQ(e.slab_nodes(), 1u);  // the callback's; flag events take none
  EXPECT_THROW(FlagUpdate::add(spy, 0, 0), std::logic_error);
  EXPECT_THROW(FlagUpdate::add(spy, 0, FlagUpdate::kMaxAmount + 1),
               std::logic_error);
}

TEST(Engine, PendingFlagEventIsDroppedAtTeardownWithoutTouchingItsTarget) {
  RecordingTarget bystander;
  auto target = std::make_unique<RecordingTarget>();
  auto e = std::make_unique<Engine>();
  e->schedule_flag_at(10, FlagUpdate::set(*target, 1));
  e->schedule_flag_at(20, FlagUpdate::add(*target, 2, 4));
  e->run_until(15);
  EXPECT_EQ(target->log, (RecordingTarget::Log{{1, 0}}));
  EXPECT_EQ(e->pending(), 1u);
  // The target goes first and a new one takes its freed id: teardown must
  // neither fire the pending update nor resolve its id.
  target.reset();
  RecordingTarget reuser;
  e.reset();
  EXPECT_TRUE(reuser.log.empty());
  EXPECT_TRUE(bystander.log.empty());
}

/// A coroutine whose wakeup, a call event, is pushed at `t` when called.
Task log_delay_until(Engine& e, TimeNs t, std::vector<std::string>& seen,
                     std::string name) {
  co_await delay_until(e, t);
  seen.push_back(std::move(name));
}

/// A call payload that logs its name when it fires.
struct LoggingCall : Call {
  LoggingCall(std::vector<std::string>& s, std::string n)
      : Call{[](Call* self) {
          auto* c = static_cast<LoggingCall*>(self);
          c->seen.push_back(c->name);
        }},
        seen(s),
        name(std::move(n)) {}
  std::vector<std::string>& seen;
  std::string name;
};

TEST(Engine, AllThreePayloadKindsAtOneInstantFireInPushOrder) {
  Engine e;
  std::vector<std::string> seen;
  struct Spy final : FlagTarget {
    explicit Spy(std::vector<std::string>& s) : seen(s) {}
    void apply_update(std::uint32_t index, std::uint32_t) override {
      seen.push_back("flag " + std::to_string(index));
    }
    std::vector<std::string>& seen;
  } spy(seen);
  LoggingCall call_a(seen, "call a"), call_b(seen, "call b");
  // Flag, node and call payloads interleaved at t = 10, each kind at least
  // twice (a coroutine's wakeup is a call too), plus a call at t = 5
  // pushed last.
  log_delay_until(e, 10, seen, "coroutine a");
  e.schedule_flag_at(10, FlagUpdate::set(spy, 1));
  e.schedule_call_at(10, &call_a);
  e.schedule_at(10, [&] { seen.push_back("node a"); });
  e.schedule_at(10, [&] { seen.push_back("node b"); });
  e.schedule_call_at(10, &call_b);
  e.schedule_flag_at(10, FlagUpdate::set(spy, 2));
  log_delay_until(e, 10, seen, "coroutine b");
  LoggingCall early(seen, "call early");
  e.schedule_call_at(5, &early);
  EXPECT_EQ(e.pending(), 9u);
  EXPECT_EQ(e.run(), 9u);
  EXPECT_EQ(seen, (std::vector<std::string>{
                      "call early", "coroutine a", "flag 1", "call a",
                      "node a", "node b", "call b", "flag 2", "coroutine b"}));
  EXPECT_EQ(e.now(), 10);
  EXPECT_EQ(e.slab_nodes(), 2u);  // the callbacks'; calls take no node
  EXPECT_EQ(e.live_tasks(), 0);
}

TEST(Engine, PendingCallIsDroppedAtTeardownWithoutRunning) {
  std::vector<std::string> seen;
  auto e = std::make_unique<Engine>();
  LoggingCall fired(seen, "fired");
  auto dropped = std::make_unique<LoggingCall>(seen, "dropped");
  e->schedule_call_at(10, &fired);
  e->schedule_call_at(20, dropped.get());
  e->run_until(15);
  EXPECT_EQ(e->pending(), 1u);
  // The call's owner goes first: teardown must neither run nor read it.
  dropped.reset();
  e.reset();
  EXPECT_EQ(seen, (std::vector<std::string>{"fired"}));
}

TEST(Determinism, TwoIdenticalRunsProduceIdenticalLogs) {
  auto run_once = [] {
    Engine e;
    std::vector<std::pair<TimeNs, int>> log;
    for (int i = 0; i < 50; ++i) {
      e.schedule_at((i * 7) % 13, [&log, i, &e] { log.emplace_back(e.now(), i); });
    }
    e.run();
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------------------------------
// Differential check: seeded random mixes of every scheduling entry point
// (callbacks, calls, flag updates, rewinds), run on sim::Engine and on a
// reference std::priority_queue ordered by (time, insertion sequence).
// Both must fire the same events in the same order, at the same now(), and
// agree on now(), pending() and next_event_time() after every operation.

class DiffDriver;

/// A call that hands each firing to the driver: the payload of one call
/// event. Parked between events.
struct ProbeSlot : Call {
  DiffDriver* driver = nullptr;
  int id = -1;  // event the next firing stands for
  static void run(Call* c);
};

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

class DiffDriver {
 public:
  struct Fired {
    int id;
    TimeNs now;
    std::size_t pending;  // after the pop, before the event's own schedules
    bool operator==(const Fired&) const = default;
  };

  explicit DiffDriver(std::uint64_t seed)
      : seed_(seed), rng_(seed), target_(this) {}
  ~DiffDriver() {
    engine_.reset();  // drop pending events before their probes
  }

  /// Runs `ops` random operations; returns "" or the first divergence.
  std::string run(int ops) {
    for (int op = 0; op < ops; ++op) {
      std::string what = step();
      if (const std::string diff = compare(); !diff.empty()) {
        return "after op " + std::to_string(op) + " (" + what + "): " + diff;
      }
    }
    return "";
  }

  /// Tokens held by unfired callbacks; zero once the engine is destroyed.
  long callback_tokens() const { return token_.use_count() - 1; }
  void destroy_engine() { engine_.reset(); }

  void fired(int id) {
    Engine& e = *engine_;
    engine_log_.push_back(Fired{id, e.now(), e.pending()});
    for (const Child& c : children(id)) {
      schedule_engine(c.kind, child_time(e.now(), c), engine_ids_++);
    }
  }

  void park(ProbeSlot* slot) { idle_probes_.push_back(slot); }

 private:
  enum class Kind {
    kAt,
    kAfter,
    kCallAt,
    kCallAfter,
    kFlag,
    kRewind,
    kRewindCall,
  };
  struct Child {
    TimeNs dt;  // negative: a rewind, behind the parent's now()
    Kind kind;  // kAt, kCallAt, kFlag, kRewind or kRewindCall
  };
  /// When a child of an event fired at `now` is due; a rewind stops at 0.
  static TimeNs child_time(TimeNs now, const Child& c) {
    return std::max<TimeNs>(0, now + c.dt);
  }

  /// Flag event `id` updates flag `id` of this target, by set (amount 0)
  /// or add (amount id % 3); the event counts as fired only with the
  /// amount it was scheduled with.
  struct Target final : FlagTarget {
    explicit Target(DiffDriver* d) : driver(d) {}
    void apply_update(std::uint32_t index, std::uint32_t amount) override {
      const int id = static_cast<int>(index);
      driver->fired(amount == flag_amount(id) ? id : -1 - id);
    }
    DiffDriver* driver;
  };
  static std::uint32_t flag_amount(int id) {
    return static_cast<std::uint32_t>(id % 3);
  }
  struct RefEvent {
    TimeNs t;
    std::uint64_t seq;
    int id;
  };
  struct Later {
    bool operator()(const RefEvent& a, const RefEvent& b) const {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };

  std::uint64_t next() { return rng_ = mix64(rng_); }

  /// One delay in eight from the far set, so that pushes reach and cross
  /// 2^16 ns edges (and multiples of them) ahead of now(), and 1 s beyond.
  static constexpr TimeNs kEdge = TimeNs{1} << 16;
  static constexpr TimeNs kFarDt[8] = {kEdge - 1,     kEdge,
                                       kEdge + 1,     2 * kEdge,
                                       3 * kEdge + 7, 1'000'000'000,
                                       kEdge,         kEdge - 1};

  /// What event `id` schedules when it fires: a pure function of (seed,
  /// id), so both sides agree as long as they fire the same ids. About one
  /// child in 16 is a rewind behind the parent's now(), so that a bucket
  /// can be interrupted mid-drain by an earlier heap bucket.
  std::vector<Child> children(int id) const {
    std::vector<Child> out;
    if (id >= kMaxEvents) return out;
    std::uint64_t r = mix64(seed_ ^ (static_cast<std::uint64_t>(id) << 20));
    std::uint64_t q = mix64(r);
    static constexpr int kCount[8] = {0, 0, 0, 1, 1, 1, 2, 3};
    static constexpr TimeNs kDt[8] = {0, 0, 1, 1, 2, 3, 5, 13};
    static constexpr TimeNs kBack[8] = {1, 1, 2, 3, 5, 13, 64, kEdge + 1};
    const int n = kCount[r & 7];
    static constexpr Kind kChild[4] = {Kind::kAt, Kind::kCallAt,
                                       Kind::kFlag, Kind::kAt};
    for (int i = 0; i < n; ++i, q >>= 8) {
      r >>= 8;
      if ((q & 15) == 0) {
        out.push_back(Child{-kBack[(q >> 4) & 7],
                            (q >> 7) & 1 ? Kind::kRewindCall : Kind::kRewind});
        continue;
      }
      const TimeNs dt = (r & 7) == 0 ? kFarDt[(r >> 3) & 7] : kDt[(r >> 3) & 7];
      out.push_back(Child{dt, kChild[(r >> 6) & 3]});
    }
    return out;
  }

  std::string step() {
    const std::uint64_t r = next();
    const TimeNs dt = ((r >> 52) & 7) == 0
                          ? kFarDt[(r >> 55) & 7]
                          : static_cast<TimeNs>((r >> 8) % 12);
    switch (r % 16) {
      case 0: case 1: case 2: case 3:
        return top_level(Kind::kAt, engine_->now() + dt);
      case 4:
        return top_level(Kind::kAfter, engine_->now() + dt);
      case 5: case 6:
        return top_level(Kind::kCallAt, engine_->now() + dt);
      case 7:
        return top_level(Kind::kCallAfter, engine_->now() + dt);
      case 10: case 11: {
        // A wave: up to 40 events over a few timestamps, all five forward
        // kinds.
        const int n = 1 + static_cast<int>((r >> 16) % 40);
        for (int i = 0; i < n; ++i) {
          const std::uint64_t k = mix64(r + static_cast<std::uint64_t>(i));
          const TimeNs jitter = static_cast<TimeNs>((k >> 8) % 3);
          top_level(static_cast<Kind>(k % 5), engine_->now() + dt + jitter);
        }
        return "wave of " + std::to_string(n);
      }
      case 8: case 9: {
        // Behind the frontier: possibly into a drained (closed) bucket, and
        // one time in two exactly at one of the last 16 fire times.
        TimeNs t = std::max<TimeNs>(0, engine_->now() - dt);
        if (((r >> 5) & 1) != 0 && !engine_log_.empty()) {
          const std::size_t back =
              (r >> 20) % std::min<std::size_t>(engine_log_.size(), 16);
          t = std::min(t, engine_log_[engine_log_.size() - 1 - back].now);
        }
        return top_level((r >> 4) & 1 ? Kind::kRewindCall : Kind::kRewind, t);
      }
      case 15: {
        const std::size_t a = engine_->run();
        std::size_t b = 0;
        while (!ref_.empty()) {
          ref_fire();
          ++b;
        }
        if (a != b) {
          return "run() fired " + std::to_string(a) + ", reference " +
                 std::to_string(b);
        }
        return "run()";
      }
      default: {
        // One deadline in four jumps past the 2^16 ns edge, parking the
        // frontier there; rewinds (cases 8-9) then land behind it.
        const TimeNs deadline =
            engine_->now() + static_cast<TimeNs>((r >> 40) % 9) +
            (((r >> 48) & 3) == 0 ? kEdge + static_cast<TimeNs>(r >> 58) : 0);
        const std::size_t a = engine_->run_until(deadline);
        std::size_t b = 0;
        while (!ref_.empty() && ref_.top().t <= deadline) {
          ref_fire();
          ++b;
        }
        ref_now_ = std::max(ref_now_, deadline);
        if (a != b) {
          return "run_until fired " + std::to_string(a) + ", reference " +
                 std::to_string(b);
        }
        return "run_until(" + std::to_string(deadline) + ")";
      }
    }
  }

  std::string top_level(Kind kind, TimeNs t) {
    schedule_engine(kind, t, engine_ids_++);
    ref_push(t, ref_ids_++);
    return "schedule kind " + std::to_string(static_cast<int>(kind)) +
           " at " + std::to_string(t);
  }

  void schedule_engine(Kind kind, TimeNs t, int id) {
    Engine& e = *engine_;
    const bool big = (mix64(seed_ + static_cast<std::uint64_t>(id)) & 7) == 0;
    switch (kind) {
      case Kind::kAt:
      case Kind::kAfter:
      case Kind::kRewind: {
        auto cb = [this, id, tok = token_] { fired(id); };
        auto big_cb = [this, id, tok = token_, pad = std::array<char, 64>{}] {
          fired(id);
        };
        if (kind == Kind::kAfter) {
          big ? e.schedule_after(t - e.now(), big_cb)
              : e.schedule_after(t - e.now(), cb);
        } else if (kind == Kind::kAt) {
          big ? e.schedule_at(t, big_cb) : e.schedule_at(t, cb);
        } else {
          big ? e.schedule_at_unchecked(t, big_cb)
              : e.schedule_at_unchecked(t, cb);
        }
        return;
      }
      case Kind::kFlag: {
        const std::uint32_t amount = flag_amount(id);
        const auto index = static_cast<std::uint32_t>(id);
        e.schedule_flag_at(t, amount == 0 ? FlagUpdate::set(target_, index)
                                          : FlagUpdate::add(target_, index,
                                                            amount));
        return;
      }
      case Kind::kCallAt:
      case Kind::kCallAfter:
      case Kind::kRewindCall: {
        ProbeSlot* slot = take_probe();
        slot->id = id;
        if (kind == Kind::kCallAfter) {
          e.call_after(t - e.now(), *slot, &ProbeSlot::run);
        } else if (kind == Kind::kCallAt) {
          e.schedule_call_at(t, slot);
        } else {
          e.schedule_call_at_unchecked(t, slot);
        }
        return;
      }
    }
  }

  ProbeSlot* take_probe() {
    if (idle_probes_.empty()) {
      probes_.push_back(std::make_unique<ProbeSlot>());
      ProbeSlot* slot = probes_.back().get();
      slot->fn = &ProbeSlot::run;
      slot->driver = this;
      return slot;
    }
    ProbeSlot* slot = idle_probes_.back();
    idle_probes_.pop_back();
    return slot;
  }

  void ref_push(TimeNs t, int id) { ref_.push(RefEvent{t, ref_seq_++, id}); }

  void ref_fire() {
    const RefEvent top = ref_.top();
    ref_.pop();
    ref_now_ = top.t;
    ref_log_.push_back(Fired{top.id, ref_now_, ref_.size()});
    for (const Child& c : children(top.id)) {
      ref_push(child_time(ref_now_, c), ref_ids_++);
    }
  }

  std::string compare() const {
    const Engine& e = *engine_;
    if (engine_log_ != ref_log_) {
      std::size_t i = 0;
      while (i < engine_log_.size() && i < ref_log_.size() &&
             engine_log_[i] == ref_log_[i]) {
        ++i;
      }
      const auto show = [](const std::vector<Fired>& log, std::size_t k) {
        if (k >= log.size()) return std::string("<none>");
        return "id " + std::to_string(log[k].id) + " at " +
               std::to_string(log[k].now) + " pending " +
               std::to_string(log[k].pending);
      };
      return "fire #" + std::to_string(i) + ": engine " + show(engine_log_, i) +
             ", reference " + show(ref_log_, i);
    }
    if (e.now() != ref_now_) {
      return "now " + std::to_string(e.now()) + " vs " +
             std::to_string(ref_now_);
    }
    if (e.pending() != ref_.size()) {
      return "pending " + std::to_string(e.pending()) + " vs " +
             std::to_string(ref_.size());
    }
    const TimeNs ref_next = ref_.empty() ? Engine::kNoEvent : ref_.top().t;
    if (engine_->next_event_time() != ref_next) {
      return "next_event_time " + std::to_string(engine_->next_event_time()) +
             " vs " + std::to_string(ref_next);
    }
    return "";
  }

  static constexpr int kMaxEvents = 4000;

  std::uint64_t seed_;
  std::uint64_t rng_;
  std::shared_ptr<int> token_ = std::make_shared<int>(0);
  Target target_;
  std::unique_ptr<Engine> engine_ = std::make_unique<Engine>();
  std::vector<std::unique_ptr<ProbeSlot>> probes_;
  std::vector<ProbeSlot*> idle_probes_;
  std::vector<Fired> engine_log_;
  int engine_ids_ = 0;
  std::priority_queue<RefEvent, std::vector<RefEvent>, Later> ref_;
  std::vector<Fired> ref_log_;
  TimeNs ref_now_ = 0;
  std::uint64_t ref_seq_ = 0;
  int ref_ids_ = 0;
};

void ProbeSlot::run(Call* c) {
  auto* slot = static_cast<ProbeSlot*>(c);
  slot->driver->fired(slot->id);
  slot->driver->park(slot);
}

TEST(EngineDifferential, MatchesReferencePriorityQueueOnRandomMixes) {
  // FCC_ENGINE_DIFF_SEED=<n> replays one seed.
  std::uint64_t first = 1, last = 300;
  if (const char* env = std::getenv("FCC_ENGINE_DIFF_SEED")) {
    first = last = std::strtoull(env, nullptr, 10);
  }
  for (std::uint64_t seed = first; seed <= last; ++seed) {
    DiffDriver driver(seed);
    const std::string diff = driver.run(160);
    if (!diff.empty()) {
      FAIL() << "seed " << seed << ": " << diff
             << "\nreplay: FCC_ENGINE_DIFF_SEED=" << seed
             << " ./test_sim_engine"
                " --gtest_filter=EngineDifferential.*";
    }
    // Destruction with events still pending releases every callback.
    driver.destroy_engine();
    ASSERT_EQ(driver.callback_tokens(), 0) << "seed " << seed;
  }
}

}  // namespace
}  // namespace fcc::sim
