// Synchronization primitives: OneShot, Condition, JoinCounter.
#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace fcc::sim {
namespace {

Task waiter(Engine& e, OneShot& ev, std::vector<TimeNs>& log) {
  co_await ev.wait();
  log.push_back(e.now());
}

Task setter(Engine& e, OneShot& ev, TimeNs at) {
  co_await delay(e, at);
  ev.set();
}

TEST(OneShot, WakesAllWaitersAtSetTime) {
  Engine e;
  OneShot ev(e);
  std::vector<TimeNs> log;
  waiter(e, ev, log);
  waiter(e, ev, log);
  setter(e, ev, 50);
  e.run();
  EXPECT_EQ(log, (std::vector<TimeNs>{50, 50}));
  EXPECT_EQ(e.live_tasks(), 0);
}

TEST(OneShot, WaitAfterSetDoesNotSuspend) {
  Engine e;
  OneShot ev(e);
  ev.set();
  std::vector<TimeNs> log;
  waiter(e, ev, log);
  // Completed synchronously at time 0 without needing e.run().
  EXPECT_EQ(log, (std::vector<TimeNs>{0}));
  EXPECT_EQ(e.live_tasks(), 0);
}

TEST(OneShot, SetIsIdempotent) {
  Engine e;
  OneShot ev(e);
  ev.set();
  ev.set();
  EXPECT_TRUE(ev.is_set());
}

Task cond_waiter(Engine& e, Condition& c, const int& value, int threshold,
                 std::vector<TimeNs>& log) {
  while (value < threshold) co_await c.wait();
  log.push_back(e.now());
}

Task cond_incrementer(Engine& e, Condition& c, int& value) {
  for (int i = 0; i < 5; ++i) {
    co_await delay(e, 10);
    ++value;
    c.notify_all();
  }
}

TEST(Condition, PredicateLoopsWakeAtRightTimes) {
  Engine e;
  Condition c(e);
  int value = 0;
  std::vector<TimeNs> log;
  cond_waiter(e, c, value, 2, log);
  cond_waiter(e, c, value, 5, log);
  cond_incrementer(e, c, value);
  e.run();
  EXPECT_EQ(log, (std::vector<TimeNs>{20, 50}));
  EXPECT_EQ(e.live_tasks(), 0);
}

Task join_worker(Engine& e, JoinCounter& j, TimeNs dur) {
  co_await delay(e, dur);
  j.arrive();
}

Task join_waiter(Engine& e, JoinCounter& j, TimeNs& done_at) {
  co_await j.wait();
  done_at = e.now();
}

TEST(JoinCounter, FiresWhenAllArrive) {
  Engine e;
  JoinCounter j(e, 3);
  TimeNs done_at = -1;
  join_waiter(e, j, done_at);
  join_worker(e, j, 10);
  join_worker(e, j, 30);
  join_worker(e, j, 20);
  e.run();
  EXPECT_EQ(done_at, 30);
}

TEST(JoinCounter, ZeroExpectedIsImmediatelyDone) {
  Engine e;
  JoinCounter j(e, 0);
  EXPECT_TRUE(j.is_done());
}

TEST(Deadlock, LiveTasksExposeUnfiredWaits) {
  Engine e;
  auto ev = std::make_unique<OneShot>(e);
  std::vector<TimeNs> log;
  waiter(e, *ev, log);
  e.run();  // queue drains, waiter still suspended
  EXPECT_EQ(e.live_tasks(), 1);
  EXPECT_TRUE(log.empty());
  ev->set();  // release so the OneShot destructor check passes
  e.run();
  EXPECT_EQ(e.live_tasks(), 0);
}

}  // namespace
}  // namespace fcc::sim
