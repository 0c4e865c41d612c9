// shmem semantics: symmetric arrays, flags, PUT delivery/ordering, quiet,
// and the flag array's allocation budget (counted by counting_new.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "counting_new.h"
#include "fused/op_runtime.h"
#include "gpu/machine.h"
#include "shmem/flags.h"
#include "shmem/sym_array.h"
#include "shmem/world.h"
#include "sim/task.h"

namespace fcc::shmem {
namespace {

gpu::Machine::Config two_nodes_one_gpu() {
  gpu::Machine::Config c;
  c.num_nodes = 2;
  c.gpus_per_node = 1;
  return c;
}

gpu::Machine::Config one_node_four_gpus() {
  gpu::Machine::Config c;
  c.num_nodes = 1;
  c.gpus_per_node = 4;
  return c;
}

TEST(SymArray, PerPeStorageIsIndependent) {
  SymArray<float> a(/*num_pes=*/3, /*elems=*/8);
  a.pe(0)[0] = 1.0f;
  a.pe(1)[0] = 2.0f;
  EXPECT_EQ(a.pe(0)[0], 1.0f);
  EXPECT_EQ(a.pe(1)[0], 2.0f);
  EXPECT_EQ(a.pe(2)[0], 0.0f);
  EXPECT_EQ(a.size_bytes(), 32);
}

TEST(SymArray, TimingOnlyModeRejectsAccess) {
  SymArray<float> a(2, 1024, /*functional=*/false);
  EXPECT_FALSE(a.functional());
  EXPECT_THROW(a.pe(0), std::logic_error);
}

sim::Task flag_waiter(sim::Engine& e, FlagArray& f, PeId pe, std::size_t i,
                      TimeNs& woke_at) {
  co_await f.wait_ge(pe, i, 1);
  woke_at = e.now();
}

sim::Task flag_setter(sim::Engine& e, FlagArray& f, PeId pe, std::size_t i,
                      TimeNs at) {
  co_await sim::delay(e, at);
  f.set(pe, i, 1);
}

TEST(FlagArray, WaitWakesExactlyWhenSet) {
  gpu::Machine m(two_nodes_one_gpu());
  FlagArray flags(m.engine(), m.num_pes(), 4);
  TimeNs woke_at = -1;
  flag_waiter(m.engine(), flags, 1, 2, woke_at);
  flag_setter(m.engine(), flags, 1, 2, 500);
  m.engine().run();
  EXPECT_EQ(woke_at, 500);
  EXPECT_EQ(m.engine().live_tasks(), 0);
}

TEST(FlagArray, WaitOnAlreadySetFlagDoesNotBlock) {
  gpu::Machine m(two_nodes_one_gpu());
  FlagArray flags(m.engine(), m.num_pes(), 1);
  flags.set(0, 0, 7);
  TimeNs woke_at = -1;
  flag_waiter(m.engine(), flags, 0, 0, woke_at);
  EXPECT_EQ(woke_at, 0);
}

TEST(FlagArray, AddAccumulates) {
  gpu::Machine m(one_node_four_gpus());
  FlagArray flags(m.engine(), m.num_pes(), 1);
  EXPECT_EQ(flags.add(0, 0, 1), 1u);
  EXPECT_EQ(flags.add(0, 0, 1), 2u);
  EXPECT_EQ(flags.read(0, 0), 2u);
}

sim::Task threshold_waiter(sim::Engine& e, FlagArray& f, std::uint64_t thr,
                           TimeNs& woke_at) {
  co_await f.wait_ge(0, 0, thr);
  woke_at = e.now();
}

sim::Task counter_ticker(sim::Engine& e, FlagArray& f, int ticks,
                         TimeNs period) {
  for (int i = 0; i < ticks; ++i) {
    co_await sim::delay(e, period);
    f.add(0, 0, 1);
  }
}

TEST(FlagArray, WakeupsAreTargetedToSatisfiedThresholdsOnly) {
  // An arrival counter ticking up must wake each threshold waiter exactly
  // when its own predicate first holds — never earlier (the old broadcast
  // protocol woke everyone on every tick and let them re-check).
  gpu::Machine m(one_node_four_gpus());
  FlagArray flags(m.engine(), m.num_pes(), 1);
  TimeNs woke1 = -1, woke3 = -1, woke5 = -1;
  threshold_waiter(m.engine(), flags, 5, woke5);  // registered first
  threshold_waiter(m.engine(), flags, 1, woke1);
  threshold_waiter(m.engine(), flags, 3, woke3);
  counter_ticker(m.engine(), flags, 5, 100);
  EXPECT_EQ(flags.num_waiters(0, 0), 3u);
  m.engine().run();
  EXPECT_EQ(woke1, 100);
  EXPECT_EQ(woke3, 300);
  EXPECT_EQ(woke5, 500);
  EXPECT_EQ(flags.num_waiters(0, 0), 0u);
  EXPECT_EQ(m.engine().live_tasks(), 0);
}

TEST(FlagArray, SimultaneouslySatisfiedWaitersWakeInRegistrationOrder) {
  // A single jump past several thresholds resumes the satisfied waiters in
  // the order they registered (matching the old broadcast resume order),
  // not threshold order.
  gpu::Machine m(one_node_four_gpus());
  FlagArray flags(m.engine(), m.num_pes(), 1);
  std::vector<int> order;
  struct Recorder {
    static sim::Task wait(sim::Engine&, FlagArray& f, std::uint64_t thr,
                          int id, std::vector<int>& order) {
      co_await f.wait_ge(0, 0, thr);
      order.push_back(id);
    }
  };
  Recorder::wait(m.engine(), flags, 4, /*id=*/0, order);  // high thr first
  Recorder::wait(m.engine(), flags, 2, /*id=*/1, order);
  Recorder::wait(m.engine(), flags, 3, /*id=*/2, order);
  flags.set(0, 0, 10);
  m.engine().run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

sim::Task ordered_waiter(FlagArray& f, std::uint64_t thr, int id,
                         std::vector<int>& order) {
  co_await f.wait_ge(0, 0, thr);
  order.push_back(id);
}

TEST(FlagArray, InterleavedThresholdsReleasedTogetherWakeInRegistrationOrder) {
  // The waiter list is sorted by threshold; the resume order must still be
  // registration order when one add satisfies all of them.
  gpu::Machine m(one_node_four_gpus());
  FlagArray flags(m.engine(), m.num_pes(), 1);
  std::vector<int> order;
  ordered_waiter(flags, 3, /*id=*/0, order);
  ordered_waiter(flags, 1, /*id=*/1, order);
  ordered_waiter(flags, 2, /*id=*/2, order);
  ordered_waiter(flags, 1, /*id=*/3, order);
  ASSERT_EQ(flags.num_waiters(0, 0), 4u);
  flags.add(0, 0, 3);
  EXPECT_EQ(flags.num_waiters(0, 0), 0u);
  m.engine().run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(FlagArray, CountsAndPendingWaitsAfterPartialWake) {
  gpu::Machine m(one_node_four_gpus());
  FlagArray flags(m.engine(), m.num_pes(), 2);
  std::vector<int> order;
  ordered_waiter(flags, 5, /*id=*/0, order);
  ordered_waiter(flags, 2, /*id=*/1, order);
  ordered_waiter(flags, 4, /*id=*/2, order);
  ordered_waiter(flags, 1, /*id=*/3, order);
  TimeNs other = -1;
  flag_waiter(m.engine(), flags, 3, 1, other);
  flags.set(0, 0, 2);  // releases ids 1 and 3, keeps 0 and 2
  m.engine().run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(flags.num_waiters(0, 0), 2u);
  EXPECT_EQ(flags.num_waiters(0, 1), 0u);
  EXPECT_EQ(flags.num_waiters(3, 1), 1u);
  EXPECT_EQ(flags.total_waiters(), 3u);
  const auto waits = flags.pending_waits();
  ASSERT_EQ(waits.size(), 3u);
  EXPECT_EQ(waits[0].pe, 0);
  EXPECT_EQ(waits[0].index, 0u);
  EXPECT_EQ(waits[0].value, 2u);
  EXPECT_EQ(waits[0].threshold, 4u);
  EXPECT_EQ(waits[1].threshold, 5u);
  EXPECT_EQ(waits[2].pe, 3);
  EXPECT_EQ(waits[2].index, 1u);
  EXPECT_EQ(waits[2].value, 0u);
  EXPECT_EQ(waits[2].threshold, 1u);
  // Drain the rest (registration order again) so the array is destroyed
  // without waiters.
  flags.set(0, 0, 5);
  flags.set(3, 1, 1);
  m.engine().run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 0, 2}));
  EXPECT_EQ(flags.total_waiters(), 0u);
}

/// A call-chain waiter (FlagArray::wait_ge_then): records its id, and
/// the time it ran.
struct ChainWaiter : sim::Call {
  sim::Engine* e;
  std::vector<int>* order;
  int id;
  TimeNs at = -1;
  static void woke(sim::Call* c) {
    auto& w = static_cast<ChainWaiter&>(*c);
    w.order->push_back(w.id);
    w.at = w.e->now();
  }
};

TEST(FlagArray, SatisfiedChainWaitSchedulesNothing) {
  gpu::Machine m(one_node_four_gpus());
  sim::Engine& e = m.engine();
  FlagArray flags(e, m.num_pes(), 1);
  flags.set(2, 0, 3);
  std::vector<int> order;
  ChainWaiter w{{}, &e, &order, 0};
  EXPECT_FALSE(flags.wait_ge_then(2, 0, 3, w, &ChainWaiter::woke));
  EXPECT_EQ(flags.total_waiters(), 0u);
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_EQ(e.run(), 0u);
  EXPECT_TRUE(order.empty());
}

TEST(FlagArray, CoroutineAndChainWaitersWakeInRegistrationOrder) {
  // A coroutine's wait_ge and a chain's wait_ge_then register the same
  // kind of node: one store that meets them all wakes them in the order
  // they registered, one zero-delay event each.
  gpu::Machine m(one_node_four_gpus());
  sim::Engine& e = m.engine();
  FlagArray flags(e, m.num_pes(), 1);
  std::vector<int> order;
  ChainWaiter a{{}, &e, &order, 1};
  ChainWaiter b{{}, &e, &order, 3};
  ordered_waiter(flags, 2, /*id=*/0, order);
  ASSERT_TRUE(flags.wait_ge_then(0, 0, 3, a, &ChainWaiter::woke));
  ordered_waiter(flags, 1, /*id=*/2, order);
  ASSERT_TRUE(flags.wait_ge_then(0, 0, 1, b, &ChainWaiter::woke));
  EXPECT_EQ(flags.num_waiters(0, 0), 4u);
  e.schedule_at(200, [&flags] { flags.set(0, 0, 3); });
  EXPECT_EQ(e.run(), 5u);  // the store, then one wake per waiter
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(a.at, 200);
  EXPECT_EQ(b.at, 200);
  EXPECT_EQ(flags.total_waiters(), 0u);
}

TEST(FlagArray, PendingWaitsListsAChainWaiter) {
  // What FusedOp::deadlock_report names for a slot stuck in a chain poll.
  gpu::Machine m(one_node_four_gpus());
  sim::Engine& e = m.engine();
  FlagArray flags(e, m.num_pes(), 2);
  std::vector<int> order;
  ChainWaiter w{{}, &e, &order, 7};
  flags.set(1, 1, 2);
  ASSERT_TRUE(flags.wait_ge_then(1, 1, 5, w, &ChainWaiter::woke));
  const auto waits = flags.pending_waits();
  ASSERT_EQ(waits.size(), 1u);
  EXPECT_EQ(waits[0].pe, 1);
  EXPECT_EQ(waits[0].index, 1u);
  EXPECT_EQ(waits[0].value, 2u);
  EXPECT_EQ(waits[0].threshold, 5u);
  flags.set(1, 1, 5);
  e.run();
  EXPECT_EQ(order, (std::vector<int>{7}));
  EXPECT_EQ(flags.total_waiters(), 0u);
}

TEST(FlagArray, PollThenWaitsAtEachFlagStillDown) {
  // Flags 1, 3, 5 of PE 0, from position 1 at stride 2: the poll passes
  // the raised flag 1, registers on flag 3 and moves past it; polled again
  // once flag 3 is up, it finds flag 5 up too and is done.
  gpu::Machine m(one_node_four_gpus());
  sim::Engine& e = m.engine();
  FlagArray flags(e, m.num_pes(), 6);
  std::vector<int> order;
  ChainWaiter w{{}, &e, &order, 0};
  const auto one = [](int) -> std::uint64_t { return 1; };
  flags.set(0, 1, 1);
  int pos = 1;
  ASSERT_TRUE(flags.poll_then(0, pos, 2, 6, one, w, &ChainWaiter::woke));
  EXPECT_EQ(pos, 5);
  EXPECT_EQ(flags.num_waiters(0, 3), 1u);
  flags.set(0, 5, 1);
  flags.set(0, 3, 1);
  EXPECT_EQ(e.run(), 1u);
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_FALSE(flags.poll_then(0, pos, 2, 6, one, w, &ChainWaiter::woke));
  EXPECT_EQ(pos, 7);
  EXPECT_EQ(e.pending(), 0u);
}

constexpr int kSequentialWaits = 100000;

/// Waits on flag[0][0] reaching 1, 2, ..., kSequentialWaits in turn and
/// starts counting allocations once the first wait has returned.
sim::Task sequential_waiter(FlagArray& f, int& done) {
  co_await f.wait_ge(0, 0, 1);
  test::g_alloc.start();
  for (int k = 2; k <= kSequentialWaits; ++k) {
    co_await f.wait_ge(0, 0, static_cast<std::uint64_t>(k));
  }
  test::g_alloc.stop();
  done = kSequentialWaits;
}

sim::Task sequential_adder(sim::Engine& e, FlagArray& f) {
  for (int k = 0; k < kSequentialWaits; ++k) {
    co_await sim::delay(e, 10);
    f.add(0, 0, 1);
  }
}

TEST(FlagArrayBudget, SequentialWaitsReuseOnePoolNode) {
  // Every wait suspends (the adder runs 10 ns behind) and frees its node
  // before the next registers, so one pool node serves all of them: a pool
  // that grew, or any per-wait allocation, would show up as a count here.
  gpu::Machine m(one_node_four_gpus());
  FlagArray flags(m.engine(), m.num_pes(), 1);
  int done = 0;
  sequential_waiter(flags, done);
  sequential_adder(m.engine(), flags);
  m.engine().run();
  ASSERT_EQ(done, kSequentialWaits);
  EXPECT_EQ(test::g_alloc.calls, 0u) << test::g_alloc.bytes << " bytes";
  EXPECT_EQ(flags.read(0, 0), static_cast<std::uint64_t>(kSequentialWaits));
}

/// One wait/set round on every PE's flag `i`: each waiter suspends and is
/// woken by the matching set.
sim::Task round_waiter(FlagArray& f, PeId pe, std::size_t i,
                       std::uint64_t v) {
  co_await f.wait_ge(pe, i, v);
}

TEST(FlagArrayBudget, LargeArrayCostsAtMost16BytesPerFlag) {
  constexpr int kPes = 64;
  constexpr std::size_t kFlags = 1024;
  gpu::Machine::Config mc;
  mc.num_nodes = 8;
  mc.gpus_per_node = 8;
  gpu::Machine m(mc);
  ASSERT_EQ(m.num_pes(), kPes);

  test::g_alloc.start();
  FlagArray flags(m.engine(), kPes, kFlags);
  test::g_alloc.stop();
  const double per_flag = static_cast<double>(test::g_alloc.bytes) /
                          static_cast<double>(kPes * kFlags);
  std::cout << "FlagArray " << kPes << "x" << kFlags << ": " << per_flag
            << " B per flag\n";
  EXPECT_LE(per_flag, 16.0);

  // A round of waits and sets; the first warms the pools and the engine.
  auto round = [&](std::uint64_t v) {
    for (PeId pe = 0; pe < kPes; ++pe) {
      for (std::size_t i = 0; i < kFlags; i += 64) {
        round_waiter(flags, pe, i, v);
      }
    }
    for (PeId pe = 0; pe < kPes; ++pe) {
      for (std::size_t i = 0; i < kFlags; i += 64) flags.set(pe, i, v);
    }
  };
  round(1);
  m.engine().run_until(0);
  // A warm round allocates nothing in the flag array itself: the waiter
  // coroutine frames are the only allocations, one per wait.
  test::g_alloc.start();
  round(2);
  test::g_alloc.stop();
  m.engine().run_until(0);
  EXPECT_EQ(test::g_alloc.calls,
            static_cast<std::uint64_t>(kPes) * (kFlags / 64));
  EXPECT_EQ(flags.total_waiters(), 0u);
  m.engine().run();
}

sim::Task put_driver(sim::Engine& e, World& w, PeId src, PeId dst, Bytes n,
                     TimeNs& issued_at, TimeNs& delivered_at) {
  co_await w.issue(src, dst, World::IssueKind::kRdma);
  w.put(src, dst, n, [&delivered_at, &e] { delivered_at = e.now(); });
  issued_at = e.now();
  co_await w.quiet(src);
}

TEST(World, PutPostedAfterIssueDeliversLater) {
  gpu::Machine m(two_nodes_one_gpu());
  World w(m);
  TimeNs issued = -1, delivered = -1;
  put_driver(m.engine(), w, 0, 1, 1 << 20, issued, delivered);
  m.engine().run();
  // Issue cost is the RDMA post overhead only.
  EXPECT_EQ(issued, m.config().ib.gpu_post_overhead_ns);
  // Delivery pays NIC proc + wire serialization + wire latency.
  const double wire_ns = (1 << 20) / m.config().ib.wire_bytes_per_ns;
  EXPECT_NEAR(static_cast<double>(delivered),
              static_cast<double>(issued) + m.config().ib.per_msg_proc_ns +
                  wire_ns + m.config().ib.wire_latency_ns,
              2.0);
  EXPECT_GT(delivered, issued);
  EXPECT_TRUE(w.quiesced(0));
}

sim::Task ordered_puts(sim::Engine& e, World& w, FlagArray& flags,
                       std::vector<TimeNs>& deliveries) {
  // Data PUT, fence, then flag PUT — the paper's slice protocol.
  co_await w.issue(0, 1, World::IssueKind::kRdma);
  w.put(0, 1, 32 * 1024, [&] { deliveries.push_back(e.now()); });
  co_await sim::delay(e, World::kFenceCostNs);
  co_await w.issue(0, 1, World::IssueKind::kRdma);
  w.put(0, 1, 8, [&] {
    deliveries.push_back(e.now());
    flags.set(1, 0, 1);
  });
}

sim::Task flag_consumer(sim::Engine& e, FlagArray& flags,
                        std::vector<TimeNs>& deliveries, TimeNs& consumed_at) {
  co_await flags.wait_ge(1, 0, 1);
  // The data PUT must already have been delivered (fence + FIFO channel).
  EXPECT_EQ(deliveries.size(), 2u);
  consumed_at = e.now();
}

TEST(World, FlagNeverOvertakesData) {
  gpu::Machine m(two_nodes_one_gpu());
  World w(m);
  FlagArray flags(m.engine(), m.num_pes(), 1);
  std::vector<TimeNs> deliveries;
  TimeNs consumed_at = -1;
  ordered_puts(m.engine(), w, flags, deliveries);
  flag_consumer(m.engine(), flags, deliveries, consumed_at);
  m.engine().run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_LE(deliveries[0], deliveries[1]);
  EXPECT_EQ(consumed_at, deliveries[1]);
  EXPECT_EQ(m.engine().live_tasks(), 0);
}

sim::Task ordered_puts_callback_free_data(sim::Engine& e, World& w,
                                          FlagArray& flags,
                                          TimeNs& flag_delivered_at) {
  co_await w.issue(0, 1, World::IssueKind::kRdma);
  w.put(0, 1, 32 * 1024);
  co_await sim::delay(e, World::kFenceCostNs);
  co_await w.issue(0, 1, World::IssueKind::kRdma);
  w.put(0, 1, 8, [&] {
    flag_delivered_at = e.now();
    flags.set(1, 0, 1);
  });
}

sim::Task flag_consumer_sees_no_put_in_flight(sim::Engine& e, World& w,
                                              FlagArray& flags,
                                              TimeNs& consumed_at) {
  co_await flags.wait_ge(1, 0, 1);
  // The callback-free data PUT fired no event of its own, but it must have
  // landed before the flag did (fence + FIFO channel).
  EXPECT_TRUE(w.quiesced(0));
  consumed_at = e.now();
}

TEST(World, FlagNeverOvertakesCallbackFreeData) {
  gpu::Machine m(two_nodes_one_gpu());
  World w(m);
  FlagArray flags(m.engine(), m.num_pes(), 1);
  TimeNs flag_at = -1, consumed_at = -1;
  ordered_puts_callback_free_data(m.engine(), w, flags, flag_at);
  flag_consumer_sees_no_put_in_flight(m.engine(), w, flags, consumed_at);
  m.engine().run();
  EXPECT_GT(flag_at, 0);
  EXPECT_EQ(consumed_at, flag_at);
  EXPECT_EQ(w.puts_issued(), 2);
  EXPECT_EQ(w.callback_free_puts(), 1);
  EXPECT_EQ(m.engine().live_tasks(), 0);
}

/// Three PUTs from PE 0 whose deliveries land out of issue order (a large
/// inter-node PUT first, then small intra-node ones), with or without
/// delivery callbacks; records each PUT's delivery (with callbacks), when
/// the last one was posted, and when quiet() returns.
sim::Task mixed_puts_then_quiet(sim::Engine& e, World& w, bool callbacks,
                                std::vector<TimeNs>& delivered,
                                TimeNs& posted_at, TimeNs& quiet_at) {
  const PeId dst[] = {4, 1, 2};
  const Bytes bytes[] = {1 << 20, 1024, 2048};
  for (int i = 0; i < 3; ++i) {
    std::function<void()> cb;
    if (callbacks) cb = [&e, &delivered, i] { delivered[i] = e.now(); };
    co_await w.issue(0, dst[i], World::IssueKind::kRdma);
    w.put(0, dst[i], bytes[i], std::move(cb));
    EXPECT_FALSE(w.quiesced(0));
  }
  posted_at = e.now();
  co_await w.quiet(0);
  quiet_at = e.now();
}

TEST(World, QuietReturnsAtTheLastCallbackFreeDelivery) {
  gpu::Machine::Config c;
  c.num_nodes = 2;
  c.gpus_per_node = 4;
  TimeNs posted_at = -1;
  auto run = [&c, &posted_at](bool callbacks, std::vector<TimeNs>& delivered,
                              std::size_t& events) {
    gpu::Machine m(c);
    World w(m);
    TimeNs quiet_at = -1;
    mixed_puts_then_quiet(m.engine(), w, callbacks, delivered, posted_at,
                          quiet_at);
    events = m.engine().run();
    EXPECT_TRUE(w.quiesced(0));
    EXPECT_EQ(w.callback_free_puts(), callbacks ? 0 : 3);
    return quiet_at;
  };
  std::vector<TimeNs> delivered(3, -1), none(3, -1);
  std::size_t events_cb = 0, events_free = 0;
  const TimeNs with_callbacks = run(true, delivered, events_cb);
  const TimeNs callback_free = run(false, none, events_free);
  const TimeNs last = *std::max_element(delivered.begin(), delivered.end());
  EXPECT_EQ(delivered[0], last);  // the first PUT lands last
  // Every PUT was still in flight when the last one was posted.
  EXPECT_GT(*std::min_element(delivered.begin(), delivered.end()), posted_at);
  EXPECT_EQ(with_callbacks, last);
  EXPECT_EQ(callback_free, last);
  // Each callback-free PUT saved exactly its delivery event.
  EXPECT_EQ(events_cb, events_free + 3);
}

sim::Task quiet_driver(sim::Engine& e, World& w, int puts, TimeNs& quiet_at,
                       int& delivered_count) {
  for (int i = 0; i < puts; ++i) {
    co_await w.issue(0, 1, World::IssueKind::kRdma);
    w.put(0, 1, 64 * 1024, [&delivered_count] { ++delivered_count; });
  }
  co_await w.quiet(0);
  quiet_at = e.now();
}

TEST(World, QuietDrainsAllOutstandingPuts) {
  gpu::Machine m(two_nodes_one_gpu());
  World w(m);
  TimeNs quiet_at = -1;
  int delivered = 0;
  quiet_driver(m.engine(), w, 10, quiet_at, delivered);
  m.engine().run();
  EXPECT_EQ(delivered, 10);
  EXPECT_GT(quiet_at, 0);
  EXPECT_TRUE(w.quiesced(0));
  EXPECT_EQ(w.puts_issued(), 10);
}

sim::Task local_put(sim::Engine& e, World& w, TimeNs& delivered_at) {
  // Posted at t = 0, with no issue cost charged.
  w.put(2, 2, 1024, [&] { delivered_at = e.now(); });
  co_await w.quiet(2);
}

TEST(World, SelfPutChargesHbmCopyNotFabric) {
  gpu::Machine m(one_node_four_gpus());
  World w(m);
  TimeNs delivered = -1;
  local_put(m.engine(), w, delivered);
  m.engine().run();
  // Local copy: 1024 bytes read + written at aggregate HBM bandwidth.
  const auto& dev = m.device(2);
  const double bw = dev.hbm().total_bandwidth(dev.spec().max_wg_slots());
  EXPECT_EQ(delivered, static_cast<TimeNs>(2.0 * 1024 / bw + 0.5));
  // Regression: a self-PUT must never reserve fabric link time.
  const auto& fabric = m.fabric(0);
  for (int p = 0; p < m.config().gpus_per_node; ++p) {
    EXPECT_EQ(fabric.egress(p).busy_ns(), 0);
    EXPECT_EQ(fabric.egress(p).next_free(), 0);
    EXPECT_EQ(fabric.ingress(p).busy_ns(), 0);
    EXPECT_EQ(fabric.ingress(p).next_free(), 0);
  }
  EXPECT_EQ(fabric.total_bytes(), 0);
}

TEST(World, ZeroByteSelfPutIsFree) {
  gpu::Machine m(one_node_four_gpus());
  World w(m);
  EXPECT_EQ(m.remote_write_time(1, 1, 0, 42), 42);
}

sim::Task store_put(sim::Engine& e, World& w, TimeNs& delivered_at) {
  co_await w.issue(0, 1, World::IssueKind::kStore);
  w.put(0, 1, 80 * 1000, [&] { delivered_at = e.now(); });
  co_await w.quiet(0);
}

TEST(World, IntraNodeStoreRidesFabric) {
  gpu::Machine m(one_node_four_gpus());
  World w(m);
  TimeNs delivered = -1;
  store_put(m.engine(), w, delivered);
  m.engine().run();
  const auto& f = m.config().fabric;
  // issue overhead + 80k bytes / 80 B/ns + latency
  EXPECT_EQ(delivered, f.store_issue_overhead_ns + 1000 + f.latency_ns);
}

sim::Task uncharged_put(sim::Engine& e, World& w, TimeNs& returned_at,
                        std::int64_t& puts, bool& quiesced) {
  co_await w.issue(0, 1, World::IssueKind::kRdma);
  w.put(0, 1, 4096);
  returned_at = e.now();
  puts = w.puts_issued();
  quiesced = w.quiesced(0);
  co_await w.quiet(0);
}

TEST(World, UnchargedPutReturnsWithoutSuspending) {
  gpu::Machine::Config c = two_nodes_one_gpu();
  c.ib.gpu_post_overhead_ns = 0;  // a zero issue latency
  gpu::Machine m(c);
  World w(m);
  TimeNs returned_at = -1;
  std::int64_t puts = -1;
  bool quiesced = true;
  uncharged_put(m.engine(), w, returned_at, puts, quiesced);
  // The process ran past the PUT before the engine fired a single event.
  EXPECT_EQ(returned_at, 0);
  EXPECT_EQ(puts, 1);
  EXPECT_FALSE(quiesced);
  EXPECT_EQ(m.device(0).busy_ns(), 0);
  m.engine().run();
  EXPECT_TRUE(w.quiesced(0));
}

/// `n` callback-free PUTs from 0 to 1, as put_nbi or as issue then put.
sim::Task put_stream(sim::Engine& e, World& w, bool nbi, int n,
                     TimeNs& quiet_at) {
  for (int i = 0; i < n; ++i) {
    if (nbi) {
      co_await w.put_nbi(0, 1, 4096, World::IssueKind::kStore);
    } else {
      co_await w.issue(0, 1, World::IssueKind::kStore);
      w.put(0, 1, 4096);
    }
  }
  co_await w.quiet(0);
  quiet_at = e.now();
}

TEST(World, PutNbiIsIssueThenPut) {
  TimeNs quiet_at[2] = {-1, -1};
  TimeNs busy[2] = {-1, -1};
  std::size_t events[2] = {0, 0};
  for (int nbi = 0; nbi < 2; ++nbi) {
    gpu::Machine m(one_node_four_gpus());
    World w(m);
    put_stream(m.engine(), w, nbi == 1, 16, quiet_at[nbi]);
    events[nbi] = m.engine().run();
    busy[nbi] = m.device(0).busy_ns();
    EXPECT_EQ(w.puts_issued(), 16);
  }
  EXPECT_GT(quiet_at[0], 0);
  EXPECT_EQ(quiet_at[1], quiet_at[0]);
  EXPECT_EQ(busy[1], busy[0]);
  EXPECT_EQ(events[1], events[0]);
}

TEST(World, FenceAdvancesExactlyItsInstructionCost) {
  gpu::Machine m(two_nodes_one_gpu());
  World w(m);
  sim::Engine& e = m.engine();
  struct Fenced : sim::Call {
    sim::Engine* e;
    TimeNs after = -1;
    static void run(sim::Call* c) {
      auto& f = static_cast<Fenced&>(*c);
      f.after = f.e->now();
    }
  } fenced{{}, &e};
  e.schedule_at(100, [&] { w.fence_then(0, fenced, &Fenced::run); });
  e.run();
  EXPECT_EQ(fenced.after, 100 + World::kFenceCostNs);
}

TEST(FlagArray, ResetRestoresFreshState) {
  gpu::Machine m(one_node_four_gpus());
  FlagArray flags(m.engine(), m.num_pes(), 4);
  flags.set(0, 1, 7);
  flags.add(2, 3, 5);
  flags.set(3, 0, 1);
  ASSERT_EQ(flags.total_waiters(), 0u);
  flags.reset();
  for (PeId pe = 0; pe < m.num_pes(); ++pe) {
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(flags.read(pe, i), 0u) << "flag[" << pe << "][" << i << "]";
    }
  }
}

TEST(FlagArray, ResetWithRegisteredWaiterThrows) {
  // Resetting under a live waiter would strand the coroutine forever (its
  // threshold can never be reached against zeroed counters) — the churn
  // guard turns that silent deadlock into an immediate failure.
  gpu::Machine m(one_node_four_gpus());
  FlagArray flags(m.engine(), m.num_pes(), 2);
  TimeNs woke_at = -1;
  flag_waiter(m.engine(), flags, 0, 1, woke_at);
  ASSERT_EQ(flags.total_waiters(), 1u);
  EXPECT_THROW(flags.reset(), std::logic_error);
  // Drain the waiter the legitimate way; reset is then allowed.
  flags.set(0, 1, 1);
  m.engine().run();
  EXPECT_EQ(flags.total_waiters(), 0u);
  flags.reset();
  EXPECT_EQ(flags.read(0, 1), 0u);
}

TEST(FlagArray, ResetRewindsWakeOrderSequence) {
  // A reset array must reproduce a fresh array's wake order exactly: the
  // registration-order tiebreak carries nothing over from the last run.
  gpu::Machine m(one_node_four_gpus());
  FlagArray flags(m.engine(), m.num_pes(), 1);
  struct Recorder {
    static sim::Task wait(sim::Engine&, FlagArray& f, std::uint64_t thr,
                          int id, std::vector<int>& order) {
      co_await f.wait_ge(0, 0, thr);
      order.push_back(id);
    }
  };
  auto run_round = [&] {
    std::vector<int> order;
    Recorder::wait(m.engine(), flags, 4, /*id=*/0, order);
    Recorder::wait(m.engine(), flags, 2, /*id=*/1, order);
    Recorder::wait(m.engine(), flags, 3, /*id=*/2, order);
    flags.set(0, 0, 10);
    m.engine().run();
    return order;
  };
  const std::vector<int> first = run_round();
  EXPECT_EQ(first, (std::vector<int>{0, 1, 2}));
  flags.reset();
  EXPECT_EQ(run_round(), first);
}

TEST(FlagSet, ShapeMatchingResetReusesTheArray) {
  gpu::Machine m(one_node_four_gpus());
  World w(m);
  fused::FlagSet set;
  set.reset(w, 4);
  FlagArray* first = set.get();
  ASSERT_NE(first, nullptr);
  set->set(0, 1, 5);
  // Same shape: the array is reset in place, not reallocated.
  set.reset(w, 4);
  EXPECT_EQ(set.get(), first);
  EXPECT_EQ(set->read(0, 1), 0u);
  // Shape change: reallocates.
  set.reset(w, 8);
  EXPECT_EQ(set->size(), 8u);
}

TEST(FlagSet, ShapeChangingResetWithRegisteredWaiterThrows) {
  // The churn guard holds on the reallocating path too: dropping the old
  // array under a live waiter would strand its coroutine.
  gpu::Machine m(one_node_four_gpus());
  World w(m);
  fused::FlagSet set;
  set.reset(w, 4);
  TimeNs woke_at = -1;
  flag_waiter(m.engine(), *set.get(), 2, 3, woke_at);
  try {
    set.reset(w, 8);
    ADD_FAILURE() << "shape-changing reset accepted a registered waiter";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("flag[2][3]"), std::string::npos)
        << e.what();
  }
  // The old array is kept; draining the waiter lets the reset go through.
  ASSERT_EQ(set->size(), 4u);
  set->set(2, 3, 1);
  m.engine().run();
  EXPECT_EQ(woke_at, 0);
  set.reset(w, 8);
  EXPECT_EQ(set->size(), 8u);
}

}  // namespace
}  // namespace fcc::shmem
