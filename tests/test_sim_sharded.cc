// Sharded conservative-lookahead engine suite.
//
// Three layers of pinning:
//
//   1. ShardedEngine unit tests — the mailbox's (time, src shard, seq)
//      injection order, barrier hooks, barrier calls, thread-count
//      invariance, and a ShardJoin whose arrivals race across threads.
//   2. gpu::Machine sharding config validation — every misconfiguration
//      (node-splitting partitions, zero lookahead, tracing while sharded)
//      must throw with a diagnosable message, not silently corrupt timing.
//   3. Determinism goldens — the ShardWorkload trace must be *exactly*
//      equal between the serial engine and the sharded engine at shard
//      counts 1/2/4/8, on both an eager-reservation fabric (fully
//      connected) and the deferred-replay torus, at any worker-thread
//      count. Plus targeted mailbox edge cases: same-timestamp deliveries
//      from different shards, flag threshold waiters satisfied by remote
//      increments landing at a window boundary, World::quiet spanning
//      shards, and one engine event per delivered PUT callback.
#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "gpu/machine.h"
#include "scaleout/shard_workload.h"
#include "shmem/flags.h"
#include "shmem/world.h"
#include "sim/shard_join.h"
#include "sim/sharded_engine.h"
#include "sim/task.h"

namespace fcc {
namespace {

// ---------------------------------------------------------------------------
// ShardedEngine unit tests
// ---------------------------------------------------------------------------

TEST(ShardedEngine, MailboxInjectsInTimeSrcShardSeqOrder) {
  sim::ShardedEngine se(3);
  std::vector<int> order;
  // All for shard 0. Posted deliberately out of (t, src, seq) order: the
  // barrier must sort by time first, then source shard, then per-source
  // sequence (posting order within one shard).
  se.post(2, 0, 10, [&] { order.push_back(20); });
  se.post(1, 0, 10, [&] { order.push_back(10); });
  se.post(1, 0, 10, [&] { order.push_back(11); });
  se.post(0, 0, 5, [&] { order.push_back(0); });
  const auto st = se.run(/*lookahead=*/100, /*num_threads=*/1);
  EXPECT_EQ(order, (std::vector<int>{0, 10, 11, 20}));
  EXPECT_EQ(st.messages, 4u);
  EXPECT_GE(st.events, 4u);
}

TEST(ShardedEngine, SameTimestampMessagesFromDifferentShardsAreOrdered) {
  // Two source shards each post two same-time messages to a third shard;
  // src-shard order breaks the tie, seq orders within a shard.
  sim::ShardedEngine se(4);
  std::vector<int> order;
  se.post(3, 0, 7, [&] { order.push_back(30); });
  se.post(3, 0, 7, [&] { order.push_back(31); });
  se.post(1, 0, 7, [&] { order.push_back(10); });
  se.post(1, 0, 7, [&] { order.push_back(11); });
  se.run(50, 1);
  EXPECT_EQ(order, (std::vector<int>{10, 11, 30, 31}));
}

TEST(ShardedEngine, BarrierHooksRunInRegistrationOrderAndMayPost) {
  sim::ShardedEngine se(2);
  std::vector<int> order;
  int fires = 0;
  // Hook A posts a message on its first invocation; hook B records that it
  // ran after A at every barrier.
  const int ha = se.add_barrier_hook([&] {
    order.push_back(1);
    if (fires++ == 0) {
      se.post(0, 1, 100, [&] { order.push_back(99); });
    }
  });
  const int hb = se.add_barrier_hook([&] { order.push_back(2); });
  se.shard(0).schedule_at(0, [] {});
  se.run(10, 1);
  // Every barrier logs {1, 2}; the posted message fires between barriers.
  ASSERT_GE(order.size(), 5u);
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    if (order[i] == 1) {
      EXPECT_EQ(order[i + 1], 2) << "hook order at " << i;
    }
  }
  EXPECT_EQ(std::count(order.begin(), order.end(), 99), 1);
  se.remove_barrier_hook(ha);
  se.remove_barrier_hook(hb);
}

TEST(ShardedEngine, RunRejectsNonPositiveLookahead) {
  sim::ShardedEngine se(2);
  EXPECT_THROW(se.run(0), std::logic_error);
  EXPECT_THROW(se.run(-5), std::logic_error);
}

TEST(ShardedEngine, FailingCheckInsideAWindowThrowsAtEveryThreadCount) {
  for (const unsigned threads : {1u, 2u}) {
    sim::ShardedEngine se(2);
    bool shard0_ran = false;
    se.shard(0).schedule_at(10, [&] { shard0_ran = true; });
    se.shard(1).schedule_at(10, [] { FCC_CHECK_MSG(false, "shard 1 failed"); });
    EXPECT_THROW(se.run(100, threads), std::logic_error) << threads;
    EXPECT_TRUE(shard0_ran) << threads;
  }
}

TEST(ShardedEngine, RejectsZeroShards) {
  EXPECT_THROW(sim::ShardedEngine se(0), std::logic_error);
}

TEST(ShardedEngine, ThreadCountDoesNotChangeResults) {
  // Each shard ping-pongs messages to the next; the full fire sequence on
  // every shard must be identical at 1 worker and at 8.
  auto run_with = [](unsigned threads) {
    sim::ShardedEngine se(4);
    std::vector<std::vector<TimeNs>> fired(4);
    for (int s = 0; s < 4; ++s) {
      for (TimeNs t = 0; t < 40; t += 10) {
        const int next = (s + 1) % 4;
        se.shard(s).schedule_at(t, [&, s, t, next] {
          fired[static_cast<std::size_t>(s)].push_back(t);
          se.post(s, next, t + 25, [&fired, next, t] {
            fired[static_cast<std::size_t>(next)].push_back(1000 + t);
          });
        });
      }
    }
    const auto st = se.run(/*lookahead=*/25, threads);
    return std::make_pair(fired, st.messages);
  };
  const auto a = run_with(1);
  const auto b = run_with(8);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_EQ(a.second, 16u);
}

/// Posts a barrier call from `shard` that schedules the awaiting
/// coroutine's call on that shard at `t`, the way ShardJoin and ccl's
/// sweeps resume a driver.
auto call_at_barrier(sim::ShardedEngine& se, int shard, TimeNs t) {
  return sim::suspend([&se, shard, t](sim::Call& c, sim::Call::Fn fn) {
    c.fn = fn;
    se.post_at_barrier(shard, se.shard(shard).now(), [&se, shard, t, &c] {
      se.shard(shard).schedule_call_at_unchecked(t, &c);
    });
    return true;
  });
}

sim::Task resumed_by_barrier_call(sim::Engine& engine, sim::ShardedEngine& se,
                                  TimeNs t, std::vector<int>& order) {
  co_await call_at_barrier(se, 0, t);
  order.push_back(static_cast<int>(engine.now()));
}

TEST(ShardedEngine, BarrierCallsRunInTimeSrcShardSeqOrderBeforeInjection) {
  sim::ShardedEngine se(3);
  std::vector<int> order;
  // A message to shard 0 at 40, posted before anything else: it is
  // injected after every barrier call has run, so it fires behind the
  // same-time resume a call schedules there.
  se.post(0, 0, 40, [&] { order.push_back(99); });
  // Posted out of (t, src, seq) order, from two shards.
  se.post_at_barrier(2, 10, [&] { order.push_back(20); });
  se.post_at_barrier(1, 10, [&] { order.push_back(10); });
  se.post_at_barrier(1, 10, [&] { order.push_back(11); });
  se.post_at_barrier(2, 5, [&] { order.push_back(0); });
  // Posts its call from shard 0 at time 0, so that call runs first.
  resumed_by_barrier_call(se.shard(0), se, 40, order);
  const auto st = se.run(/*lookahead=*/100, /*num_threads=*/1);
  EXPECT_EQ(order, (std::vector<int>{0, 10, 11, 20, 40, 99}));
  EXPECT_EQ(st.messages, 1u);  // barrier calls are not mailbox messages
  EXPECT_EQ(se.live_tasks(), 0);
}

sim::Task join_driver(sim::Engine& engine, sim::ShardJoin& join,
                      TimeNs& resumed) {
  co_await join.wait();
  resumed = engine.now();
}

TEST(ShardJoin, ResumeDoesNotDependOnWhichThreadArrivesLast) {
  // The home arrival (shard 0, t = 10) and a later remote one (shard 3,
  // t = 30) land in the same window. Threads race to them, but the driver
  // must resume at their max, in the same window, every time.
  struct Outcome {
    TimeNs resumed;
    std::size_t windows;
    std::size_t events;
  };
  const auto run_with = [](unsigned threads) {
    sim::ShardedEngine se(4);
    sim::ShardJoin join(se, /*home_shard=*/0, /*num_arrivals=*/2);
    TimeNs resumed = -1;
    join_driver(se.shard(0), join, resumed);
    se.shard(0).schedule_at(10, [&] { join.arrive(0, 10); });
    se.shard(3).schedule_at(30, [&] { join.arrive(3, 30); });
    const auto st = se.run(/*lookahead=*/100, threads);
    EXPECT_EQ(se.live_tasks(), 0);
    return Outcome{resumed, st.windows, st.events};
  };
  const Outcome serial = run_with(1);
  EXPECT_EQ(serial.resumed, 30);
  for (int rep = 0; rep < 20; ++rep) {
    for (unsigned threads : {2u, 4u}) {
      const Outcome o = run_with(threads);
      EXPECT_EQ(o.resumed, serial.resumed) << threads << " threads";
      EXPECT_EQ(o.windows, serial.windows) << threads << " threads";
      EXPECT_EQ(o.events, serial.events) << threads << " threads";
    }
  }
}

// ---------------------------------------------------------------------------
// Topology lookahead derivation
// ---------------------------------------------------------------------------

gpu::Machine::Config torus_config(int dim_x, int dim_y, int gpus, int shards) {
  gpu::Machine::Config cfg;
  cfg.num_nodes = dim_x * dim_y;
  cfg.gpus_per_node = gpus;
  cfg.topology.kind = hw::TopologySpec::Kind::kTorus2D;
  cfg.topology.torus.dim_x = dim_x;
  cfg.topology.torus.dim_y = dim_y;
  cfg.num_shards = shards;
  return cfg;
}

TEST(ShardLookahead, FullyConnectedFloorsAtNicProcPlusWire) {
  gpu::Machine::Config cfg;
  cfg.num_nodes = 4;
  cfg.gpus_per_node = 2;
  cfg.num_shards = 2;
  gpu::Machine m(cfg);
  EXPECT_TRUE(m.topology().inter_node_state_src_local());
  EXPECT_FALSE(m.defer_inter_node());
  // NIC path: per-message processing + wire propagation (serialization is
  // load-dependent and excluded from the conservative floor).
  EXPECT_EQ(m.lookahead(),
            cfg.ib.per_msg_proc_ns + cfg.ib.wire_latency_ns);
}

TEST(ShardLookahead, TorusFloorsAtOneLinkLatencyAndDefers) {
  gpu::Machine m(torus_config(4, 2, 2, 4));
  EXPECT_FALSE(m.topology().inter_node_state_src_local());
  EXPECT_TRUE(m.defer_inter_node());
  EXPECT_EQ(m.lookahead(), m.config().topology.torus.link_latency_ns);
}

TEST(ShardLookahead, SerialMachineHasNoWindow) {
  gpu::Machine m(gpu::Machine::Config{});
  EXPECT_EQ(m.lookahead(), 0);
  EXPECT_FALSE(m.is_sharded());
}

// ---------------------------------------------------------------------------
// Machine sharding config validation
// ---------------------------------------------------------------------------

TEST(ShardConfig, RejectsMoreShardsThanNodes) {
  gpu::Machine::Config cfg;
  cfg.num_nodes = 2;
  cfg.gpus_per_node = 4;
  cfg.num_shards = 4;  // a node would have to split
  EXPECT_THROW(gpu::Machine m(cfg), std::logic_error);
}

TEST(ShardConfig, RejectsZeroCrossShardLookahead) {
  auto cfg = torus_config(2, 2, 1, 2);
  cfg.topology.torus.link_latency_ns = 0;  // legal torus, illegal to shard
  EXPECT_THROW(gpu::Machine m(cfg), std::logic_error);
}

TEST(ShardConfig, TraceCollectionWhileShardedUsesPerShardBuffers) {
  // Sharded tracing: each shard thread writes its own buffer (trace_of),
  // and merged_trace() exposes the canonical sorted view.
  gpu::Machine::Config cfg;
  cfg.num_nodes = 2;
  cfg.gpus_per_node = 1;
  cfg.num_shards = 2;
  cfg.collect_trace = true;
  gpu::Machine m(cfg);
  EXPECT_TRUE(m.trace_of(0).enabled());
  EXPECT_TRUE(m.trace_of(1).enabled());
  m.trace_of(0).add_instant({"a", "test", 0, 0, 20});
  m.trace_of(1).add_instant({"b", "test", 1, 0, 10});
  const sim::Trace merged = m.merged_trace();
  ASSERT_EQ(merged.instants().size(), 2u);
  EXPECT_EQ(merged.instants()[0].name, "b");  // sorted by time
  EXPECT_EQ(merged.instants()[1].name, "a");
}

TEST(ShardConfig, DefaultTorusPartitionIsNodeAlignedTiling) {
  gpu::Machine m(torus_config(4, 4, 2, 4));
  std::vector<int> nodes_per_shard(4, 0);
  for (PeId pe = 0; pe < m.num_pes(); ++pe) {
    const int s = m.shard_of(pe);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 4);
    // Node-aligned: same shard as the node's first PE.
    EXPECT_EQ(s, m.shard_of(m.pe_of(m.node_of(pe), 0)));
    if (m.local_index(pe) == 0) ++nodes_per_shard[static_cast<std::size_t>(s)];
  }
  for (const int n : nodes_per_shard) EXPECT_EQ(n, 4);  // balanced tiles
}

// ---------------------------------------------------------------------------
// Golden determinism traces: serial == sharded at 1/2/4/8 shards
// ---------------------------------------------------------------------------

scaleout::ShardWorkloadConfig small_workload() {
  scaleout::ShardWorkloadConfig w;
  w.rounds = 3;
  w.lanes_per_pe = 2;
  w.compute_ns = 500;
  w.intra_bytes = 65536;
  w.inter_bytes = 4096;
  return w;
}

scaleout::ShardTrace run_fc(int shards, unsigned threads = 0) {
  gpu::Machine::Config cfg;
  cfg.num_nodes = 8;
  cfg.gpus_per_node = 2;
  cfg.num_shards = shards;
  gpu::Machine m(cfg);
  return scaleout::run_shard_workload(m, small_workload(), threads);
}

scaleout::ShardTrace run_torus(int shards, unsigned threads = 0) {
  gpu::Machine m(torus_config(4, 2, 2, shards));
  return scaleout::run_shard_workload(m, small_workload(), threads);
}

TEST(ShardDeterminism, FullyConnectedMatchesSerialAtAllShardCounts) {
  const auto serial = run_fc(1);
  for (const int s : {2, 4, 8}) {
    const auto sharded = run_fc(s);
    EXPECT_EQ(serial, sharded)
        << "shards=" << s << "\nserial:\n"
        << serial.str() << "\nsharded:\n"
        << sharded.str();
  }
}

TEST(ShardDeterminism, TorusMatchesSerialAtAllShardCounts) {
  const auto serial = run_torus(1);
  for (const int s : {2, 4, 8}) {
    const auto sharded = run_torus(s);
    EXPECT_EQ(serial, sharded)
        << "shards=" << s << "\nserial:\n"
        << serial.str() << "\nsharded:\n"
        << sharded.str();
  }
}

TEST(ShardDeterminism, WorkerThreadCountDoesNotChangeTrace) {
  const auto one = run_fc(4, /*threads=*/1);
  const auto many = run_fc(4, /*threads=*/8);
  EXPECT_EQ(one, many);
  const auto t_one = run_torus(8, /*threads=*/1);
  const auto t_many = run_torus(8, /*threads=*/8);
  EXPECT_EQ(t_one, t_many);
}

// Golden numbers recorded from the serial engine (shard count 1). Any
// change to engine ordering, the window protocol, or route accounting that
// shifts a single delivery breaks these — that is the point.
TEST(ShardDeterminism, FullyConnectedGoldenTrace) {
  const auto tr = run_fc(4);
  EXPECT_EQ(tr.puts, 192);  // 16 PEs * 3 rounds * 2 lanes * (intra + inter)
  EXPECT_EQ(tr.final_time(), 10965) << tr.str();
  for (const std::uint64_t f : tr.flags) EXPECT_EQ(f, 3u);  // rounds
}

TEST(ShardDeterminism, TorusGoldenTrace) {
  const auto tr = run_torus(8);
  EXPECT_EQ(tr.puts, 192);
  EXPECT_EQ(tr.final_time(), 8298) << tr.str();
  for (const std::uint64_t f : tr.flags) EXPECT_EQ(f, 3u);
}

// ---------------------------------------------------------------------------
// Mailbox edge cases through the full shmem stack
// ---------------------------------------------------------------------------

sim::Task send_one(sim::Engine& engine, shmem::World& w, shmem::FlagArray& f,
                   PeId src, PeId dst, TimeNs start) {
  co_await sim::delay_until(engine, start);
  co_await w.issue(src, dst, shmem::World::IssueKind::kRdma);
  w.put(src, dst, 256, [&f, dst] { f.add(dst, 0, 1); });
}

sim::Task wait_threshold(sim::Engine& engine, shmem::FlagArray& f, PeId pe,
                         std::uint64_t threshold, TimeNs& resumed_at) {
  co_await f.wait_ge(pe, 0, threshold);
  resumed_at = engine.now();
}

std::vector<sim::Engine*> per_pe_engines(gpu::Machine& m) {
  std::vector<sim::Engine*> e(static_cast<std::size_t>(m.num_pes()));
  for (PeId pe = 0; pe < m.num_pes(); ++pe) e[pe] = &m.engine_of(pe);
  return e;
}

/// Two senders on different shards issue PUTs that deliver to a third
/// shard's PE at the *same* timestamp; the waiter needs both. The resume
/// time and final flag value must match the serial engine exactly.
TEST(ShardMailbox, SameTimestampRemoteIncrementsSatisfyThresholdWaiter) {
  auto run = [](int shards) {
    gpu::Machine::Config cfg;
    cfg.num_nodes = 3;
    cfg.gpus_per_node = 1;
    cfg.num_shards = shards;
    gpu::Machine m(cfg);
    shmem::World w(m);
    shmem::FlagArray f(per_pe_engines(m), 1);
    TimeNs resumed_at = -1;
    send_one(m.engine_of(0), w, f, 0, 2, 0);
    send_one(m.engine_of(1), w, f, 1, 2, 0);
    wait_threshold(m.engine_of(2), f, 2, 2, resumed_at);
    m.run_all();
    EXPECT_EQ(m.sharded().live_tasks(), 0);
    EXPECT_EQ(f.read(2, 0), 2u);
    return resumed_at;
  };
  const TimeNs serial = run(1);
  const TimeNs sharded = run(3);
  EXPECT_GT(serial, 0);
  EXPECT_EQ(serial, sharded);
}

/// A remote increment whose delivery lands exactly at a window boundary
/// must wake the waiter at the same simulated time as the serial engine.
TEST(ShardMailbox, RemoteIncrementAtWindowBoundaryWakesWaiter) {
  auto run = [](int shards) {
    gpu::Machine::Config cfg;
    cfg.num_nodes = 2;
    cfg.gpus_per_node = 1;
    cfg.num_shards = shards;
    gpu::Machine m(cfg);
    shmem::World w(m);
    shmem::FlagArray f(per_pe_engines(m), 1);
    TimeNs resumed_at = -1;
    // Stagger the sender so the delivery does not align with window 0's
    // start; the delivery then lands mid-protocol at a barrier-injected
    // event time.
    send_one(m.engine_of(0), w, f, 0, 1, 137);
    wait_threshold(m.engine_of(1), f, 1, 1, resumed_at);
    m.run_all();
    EXPECT_EQ(m.sharded().live_tasks(), 0);
    return resumed_at;
  };
  const TimeNs serial = run(1);
  const TimeNs sharded = run(2);
  EXPECT_GT(serial, 137);
  EXPECT_EQ(serial, sharded);
}

sim::Task burst_then_quiet(sim::Engine& engine, shmem::World& w, PeId src,
                           PeId dst, int count, TimeNs& quiet_done) {
  for (int i = 0; i < count; ++i) {
    co_await w.issue(src, dst, shmem::World::IssueKind::kRdma);
    w.put(src, dst, 4096);
  }
  co_await w.quiet(src);
  quiet_done = engine.now();
}

/// World::quiet must not return until deliveries landing on *other* shards
/// have completed; the drain time must equal the serial engine's.
TEST(ShardMailbox, QuietSpansShards) {
  auto run = [](int shards) {
    gpu::Machine::Config cfg;
    cfg.num_nodes = 2;
    cfg.gpus_per_node = 2;
    cfg.num_shards = shards;
    gpu::Machine m(cfg);
    shmem::World w(m);
    TimeNs quiet_done = -1;
    burst_then_quiet(m.engine_of(0), w, 0, 3, 4, quiet_done);
    m.run_all();
    EXPECT_EQ(m.sharded().live_tasks(), 0);
    EXPECT_TRUE(w.quiesced(0));
    return quiet_done;
  };
  const TimeNs serial = run(1);
  const TimeNs sharded = run(2);
  EXPECT_GT(serial, 0);
  EXPECT_EQ(serial, sharded);
}

/// Same, on the deferred-reservation torus path: the quiet waiter's finish
/// messages ride the barrier replay.
TEST(ShardMailbox, QuietSpansShardsOnTorus) {
  auto run = [](int shards) {
    gpu::Machine m(torus_config(2, 2, 1, shards));
    shmem::World w(m);
    TimeNs quiet_done = -1;
    burst_then_quiet(m.engine_of(0), w, 0, 3, 4, quiet_done);
    m.run_all();
    EXPECT_EQ(m.sharded().live_tasks(), 0);
    EXPECT_TRUE(w.quiesced(0));
    return quiet_done;
  };
  const TimeNs serial = run(1);
  const TimeNs sharded = run(4);
  EXPECT_GT(serial, 0);
  EXPECT_EQ(serial, sharded);
}

sim::Task put_then_quiet(sim::Engine& engine, shmem::World& w, bool callback,
                         TimeNs& delivered_at, bool& quiesced_after_post,
                         TimeNs& quiet_done) {
  std::function<void()> cb;
  if (callback) {
    // Runs on the destination's shard: reads only its own clock.
    cb = [&delivered_at, &w] {
      delivered_at = w.machine().engine_of(1).now();
    };
  }
  co_await w.issue(0, 1, shmem::World::IssueKind::kRdma);
  w.put(0, 1, 64 * 1024, std::move(cb));
  quiesced_after_post = w.quiesced(0);
  co_await w.quiet(0);
  quiet_done = engine.now();
}

/// A callback-free inter-node PUT on a 2-shard torus has no delivery time
/// until the barrier replays its reservation: it must stay outstanding until
/// then, and quiet() must return exactly at the replayed delivery — the
/// time a callback on the same PUT observes, serial or sharded.
TEST(ShardMailbox, QuietWaitsForReplayedCallbackFreeDeliveryOnTorus) {
  auto run = [](int shards, bool callback) {
    gpu::Machine m(torus_config(2, 1, 1, shards));
    EXPECT_EQ(m.defer_inter_node(), shards > 1);
    shmem::World w(m);
    TimeNs delivered_at = -1, quiet_done = -1;
    bool quiesced_after_post = true;
    put_then_quiet(m.engine_of(0), w, callback, delivered_at,
                   quiesced_after_post, quiet_done);
    m.run_all();
    EXPECT_EQ(m.sharded().live_tasks(), 0);
    EXPECT_FALSE(quiesced_after_post);
    EXPECT_TRUE(w.quiesced(0));
    EXPECT_EQ(w.callback_free_puts(), callback ? 0 : 1);
    if (callback) {
      EXPECT_EQ(quiet_done, delivered_at);
    }
    return quiet_done;
  };
  const TimeNs reference = run(1, true);
  EXPECT_GT(reference, 0);
  EXPECT_EQ(run(1, false), reference);
  EXPECT_EQ(run(2, true), reference);
  EXPECT_EQ(run(2, false), reference);
}

/// The paths a PUT's delivery takes: PE 0 sends to an intra-node peer
/// (PE 1) and an inter-node one (PE 2, on the other shard when sharded) of
/// a 2-node x 2-GPU machine. Fully connected at 2 shards is the eager
/// path, the torus at 2 shards the deferred one.
gpu::Machine::Config put_path_config(bool torus, int shards) {
  if (torus) return torus_config(2, 1, 2, shards);
  gpu::Machine::Config cfg;
  cfg.num_nodes = 2;
  cfg.gpus_per_node = 2;
  cfg.num_shards = shards;
  return cfg;
}

constexpr int kPathPuts = 6;

struct PathRun {
  std::size_t events = 0;
  TimeNs quiet_done = -1;
  std::vector<TimeNs> posted;     // per PUT
  std::vector<TimeNs> delivered;  // per PUT with a callback, else -1
};

/// Issues kPathPuts 64 KiB PUTs from PE 0, alternating between PE 2 and
/// PE 1; the first `with_callback` carry a callback that records its
/// delivery time. Then quiets.
sim::Task puts_then_quiet(sim::Engine& engine, shmem::World& w,
                          int with_callback, PathRun& r) {
  for (int i = 0; i < kPathPuts; ++i) {
    const PeId dst = i % 2 == 0 ? 2 : 1;
    std::function<void()> cb;
    if (i < with_callback) {
      // Runs on the destination's shard: reads only its own clock.
      cb = [&r, &w, dst, i] {
        r.delivered[static_cast<std::size_t>(i)] =
            w.machine().engine_of(dst).now();
      };
    }
    co_await w.issue(0, dst, shmem::World::IssueKind::kRdma);
    w.put(0, dst, 64 * 1024, std::move(cb));
    r.posted.push_back(engine.now());
  }
  co_await w.quiet(0);
  r.quiet_done = engine.now();
}

PathRun run_put_path(bool torus, int shards, int with_callback) {
  gpu::Machine m(put_path_config(torus, shards));
  EXPECT_EQ(m.defer_inter_node(), torus && shards > 1);
  shmem::World w(m);
  PathRun r;
  r.delivered.assign(kPathPuts, -1);
  puts_then_quiet(m.engine_of(0), w, with_callback, r);
  r.events = m.run_all().events;
  EXPECT_EQ(m.sharded().live_tasks(), 0);
  EXPECT_TRUE(w.quiesced(0));
  EXPECT_EQ(w.puts_issued(), kPathPuts);
  EXPECT_EQ(w.callback_free_puts(), kPathPuts - with_callback);
  return r;
}

/// A PUT's callback is its only engine event: the source's completion is
/// its delivery time, on every path. So a run in which k PUTs carry a
/// callback fires exactly k more events than the same run without; the
/// cross-shard callbacks (to PE 2) cost no second event on the source's
/// shard.
TEST(ShardPut, OneEngineEventPerCallbackPut) {
  for (const bool torus : {false, true}) {
    for (const int shards : {1, 2}) {
      const std::size_t none = run_put_path(torus, shards, 0).events;
      for (const int k : {1, 4, kPathPuts}) {
        EXPECT_EQ(run_put_path(torus, shards, k).events,
                  none + static_cast<std::size_t>(k))
            << (torus ? "torus" : "fully connected") << ", " << shards
            << " shard(s), " << k << " callback PUTs";
      }
    }
  }
}

/// quiet() returns at the last delivery, with every callback already run
/// (none lands later), serial or sharded, with or without callbacks; and
/// every PUT is posted and delivered at the serial engine's times.
TEST(ShardPut, QuietReturnsAtTheLastDeliveryOnEveryPath) {
  for (const bool torus : {false, true}) {
    const PathRun serial = run_put_path(torus, 1, kPathPuts);
    const TimeNs last =
        *std::max_element(serial.delivered.begin(), serial.delivered.end());
    EXPECT_GT(last, 0);
    // Some PUT lands before the last one is posted.
    EXPECT_LT(
        *std::min_element(serial.delivered.begin(), serial.delivered.end()),
        serial.posted.back());
    for (const int shards : {1, 2}) {
      for (const int k : {0, kPathPuts}) {
        const PathRun r = run_put_path(torus, shards, k);
        const std::string what = std::string(torus ? "torus" : "fc") + ", " +
                                 std::to_string(shards) + " shard(s), " +
                                 std::to_string(k) + " callback PUTs";
        if (k > 0) {
          EXPECT_EQ(r.delivered, serial.delivered) << what;
        }
        EXPECT_EQ(r.quiet_done, last) << what;
        EXPECT_EQ(r.posted, serial.posted) << what;
      }
    }
  }
}

/// kPathPuts PUTs from PE 0 whose callbacks record, in delivery order,
/// quiesced(0) and the PUTs posted so far; then quiets and records how
/// many callbacks had run.
sim::Task counted_puts_then_quiet(
    shmem::World& w, std::vector<std::pair<bool, int>>& at_delivery,
    int& run_at_quiet) {
  int posted = 0;
  for (int i = 0; i < kPathPuts; ++i) {
    const PeId dst = i % 2 == 0 ? 2 : 1;
    co_await w.issue(0, dst, shmem::World::IssueKind::kRdma);
    w.put(0, dst, 64 * 1024, [&w, &at_delivery, &posted] {
      at_delivery.emplace_back(w.quiesced(0), posted);
    });
    ++posted;
  }
  co_await w.quiet(0);
  run_at_quiet = static_cast<int>(at_delivery.size());
}

/// On one engine, a callback sees PE 0 quiesced exactly when every posted
/// PUT's callback has run, its own included, and quiet() resumes only
/// after the last callback has run.
TEST(ShardPut, SerialCallbackSeesItsPutLandedAndQuietFollowsTheLast) {
  gpu::Machine m(put_path_config(false, 1));
  shmem::World w(m);
  std::vector<std::pair<bool, int>> at_delivery;
  int run_at_quiet = -1;
  counted_puts_then_quiet(w, at_delivery, run_at_quiet);
  m.run_all();
  EXPECT_EQ(run_at_quiet, kPathPuts);
  ASSERT_EQ(at_delivery.size(), static_cast<std::size_t>(kPathPuts));
  for (std::size_t j = 0; j < at_delivery.size(); ++j) {
    const auto [quiesced, posted] = at_delivery[j];
    EXPECT_EQ(quiesced, posted == static_cast<int>(j) + 1) << "delivery " << j;
  }
  // Some PUT landed before the last one was posted.
  EXPECT_LT(at_delivery.front().second, kPathPuts);
}

}  // namespace
}  // namespace fcc
