// Persistent-kernel runtime and Device compute model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <tuple>
#include <utility>
#include <vector>

#include "gpu/device.h"
#include "gpu/machine.h"
#include "gpu/persistent.h"
#include "ops/cost_model.h"
#include "shmem/flags.h"
#include "shmem/world.h"
#include "sim/engine.h"
#include "sim/flag_update.h"

// Counting global allocation functions for this binary: the runtime-cost
// tests below read how many heap blocks a kernel launch takes and frees.
namespace {
std::size_t g_news = 0;
std::size_t g_deletes = 0;
}  // namespace

// Out of line, so the compiler never pairs an inlined free() with a new
// expression (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t n) {
  ++g_news;
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (p != nullptr) ++g_deletes;
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  operator delete(p);
}

namespace fcc::gpu {
namespace {

Machine::Config one_gpu() {
  Machine::Config c;
  c.num_nodes = 1;
  c.gpus_per_node = 1;
  return c;
}

TEST(Device, ComputeDurationMemoryBound) {
  Machine m(one_gpu());
  Device& d = m.device(0);
  WorkCost cost;
  cost.hbm_bytes = 1 << 20;
  // With one active WG, per-WG bandwidth = total_bandwidth(1).
  const double bw = d.hbm().per_wg_bandwidth(1, cost.curve);
  EXPECT_NEAR(static_cast<double>(d.compute_duration(cost, 1)),
              static_cast<double>(1 << 20) / bw, 2.0);
}

TEST(Device, ComputeDurationAluBound) {
  Machine m(one_gpu());
  Device& d = m.device(0);
  WorkCost cost;
  cost.flops = 1e6;
  cost.alu_efficiency = 0.5;
  // One active WG: ALU utilization = 1/alu_saturation_wgs of peak.
  const double per_wg = d.spec().fp32_flops_per_ns * 0.5 /
                        d.spec().alu_saturation_wgs;
  EXPECT_NEAR(static_cast<double>(d.compute_duration(cost, 1)), 1e6 / per_wg,
              2.0);
}

TEST(Device, MaxOfMemAndAluRules) {
  Machine m(one_gpu());
  Device& d = m.device(0);
  WorkCost mem_only, alu_only, both;
  mem_only.hbm_bytes = both.hbm_bytes = 1 << 20;
  alu_only.flops = both.flops = 1e9;
  EXPECT_EQ(d.compute_duration(both, 1),
            std::max(d.compute_duration(mem_only, 1),
                     d.compute_duration(alu_only, 1)));
}

// A tabulated cost must time every step exactly as compute_duration does:
// table entries up to the device's WG slots, the formula past them.
TEST(Device, DurationTableIsExactAtEveryActiveCount) {
  Machine m(one_gpu());
  Device& d = m.device(0);
  const int max_slots = d.spec().max_wg_slots();
  // A 64x64 tile over k = 4096: A and B panels in, C out.
  WorkCost tile_gemm;
  tile_gemm.hbm_bytes = (64 * 4096 + 4096 * 64 + 64 * 64) * 4;
  tile_gemm.flops = 2.0 * 64 * 64 * 4096;
  tile_gemm.alu_efficiency = ops::kTritonGemmEfficiency;
  tile_gemm.curve = ops::kBaselineCurve;
  std::vector<std::pair<const char*, WorkCost>> costs = {
      {"baseline embedding",
       ops::embedding_wg_cost(64, 128, /*local_write=*/true,
                              ops::kBaselineCurve)},
      {"fused embedding store",
       ops::embedding_wg_cost(64, 256, /*local_write=*/false,
                              ops::kFusedEmbeddingCurve)},
      {"tile gemm", tile_gemm},
  };
  for (auto& [name, cost] : costs) {
    WorkCost plain = cost;
    d.tabulate(cost);
    ASSERT_EQ(cost.by_active.size(), static_cast<std::size_t>(max_slots) + 1)
        << name;
    for (int a = 1; a <= 4 * max_slots; ++a) {
      ASSERT_EQ(d.step_duration(cost, a), d.compute_duration(plain, a))
          << name << " at " << a << " active";
      ASSERT_EQ(d.step_duration(plain, a), d.compute_duration(plain, a))
          << name << " untabulated at " << a << " active";
    }
  }
}

WorkCost mem_cost(Bytes bytes) {
  WorkCost c;
  c.hbm_bytes = bytes;
  return c;
}

/// One WG's compute step as a call chain: start_step, then end_step in
/// the step's end call, which records when it ran.
struct StepWg : sim::Call {
  Device* d;
  TimeNs done = -1;
  void start(const WorkCost& cost) { d->start_step(cost, *this, &ended); }
  static void ended(sim::Call* c) {
    auto& g = static_cast<StepWg&>(*c);
    g.d->end_step();
    g.done = g.d->engine().now();
  }
};

TEST(Device, ConcurrentComputeIsChargedAtEntryOccupancy) {
  // Two WGs enter a memory-bound step at the same instant: the second sees
  // two active WGs, so its per-WG bandwidth share is smaller and it lasts
  // longer.
  Machine m(one_gpu());
  Device& d = m.device(0);
  const WorkCost cost = mem_cost(1 << 20);
  const TimeNs d1 = d.compute_duration(cost, 1);
  const TimeNs d2 = d.compute_duration(cost, 2);
  ASSERT_GT(d2, d1);
  StepWg wg1{{}, &d}, wg2{{}, &d};
  wg1.start(cost);
  wg2.start(cost);
  EXPECT_EQ(d.active_wgs(), 2);
  m.engine().run();
  EXPECT_EQ(wg1.done, d1);
  EXPECT_EQ(wg2.done, d2);
  EXPECT_EQ(d.active_wgs(), 0);
  EXPECT_EQ(d.busy_ns(), d1 + d2);
}

/// What a run of concurrent WG steps records.
struct StepLog {
  std::vector<TimeNs> ends;  // per device-0 WG: its chain's end
  int resumed = 0;           // device-0 WGs ended so far
  /// (now, device 0's active WGs, WGs ended), at every probe and end.
  std::vector<std::tuple<TimeNs, int, int>> active;
  std::vector<std::uint32_t> flags;  // flag indices, as applied
  TimeNs busy0 = 0;
  TimeNs busy1 = 0;
  std::size_t events = 0;
};

/// One device-0 WG as a chain of engine calls (start_step, end_step,
/// issue_then): a compute step, then a zero-copy store's issue wait, the
/// way a persistent-kernel slot runs it.
struct ChainWg : sim::Call {
  sim::Engine* e;
  Device* d;
  shmem::World* w;
  StepLog* log;
  std::size_t i;

  void start(const WorkCost& cost) { d->start_step(cost, *this, &step_end); }
  static void step_end(sim::Call* c) {
    auto& g = static_cast<ChainWg&>(*c);
    g.d->end_step();
    if (!g.w->issue_then(0, 1, shmem::World::IssueKind::kStore, g, &issued)) {
      issued(c);
    }
  }
  static void issued(sim::Call* c) {
    auto& g = static_cast<ChainWg&>(*c);
    g.log->ends[g.i] = g.e->now();
    g.log->active.emplace_back(g.e->now(), g.d->active_wgs(),
                               ++g.log->resumed);
  }
};

/// A device-1 WG whose step starts at the call's time.
struct StepAt : sim::Call {
  Device* d;
  const WorkCost* cost;
  static void run(sim::Call* c) {
    auto& g = static_cast<StepAt&>(*c);
    g.d->start_step(*g.cost, g, &ended);
  }
  static void ended(sim::Call* c) { static_cast<StepAt&>(*c).d->end_step(); }
};

StepLog run_steps() {
  struct Flags final : sim::FlagTarget {
    explicit Flags(std::vector<std::uint32_t>& l) : log(l) {}
    void apply_update(std::uint32_t index, std::uint32_t) override {
      log.push_back(index);
    }
    std::vector<std::uint32_t>& log;
  };
  Machine::Config c;
  c.num_nodes = 1;
  c.gpus_per_node = 2;
  Machine m(c);
  shmem::World w(m);
  sim::Engine& e = m.engine();
  Device& d0 = m.device(0);
  Device& d1 = m.device(1);
  constexpr int kWgs = 4;
  const WorkCost cost = mem_cost(1 << 16);
  StepLog log;
  log.ends.assign(kWgs, -1);
  Flags flags(log.flags);
  const auto probe = [&] {
    log.active.emplace_back(e.now(), d0.active_wgs(), log.resumed);
  };
  // The WGs start together, so WG a's step ends at its duration with a
  // active WGs. A flag update is queued at each end before the WGs start;
  // a probe and device 1's step after them, and a probe at each end plus
  // the issue wait, when the WG's chain ends.
  std::vector<TimeNs> step_ends;
  for (int a = 1; a <= kWgs; ++a) {
    step_ends.push_back(d0.step_duration(cost, a));
    const auto index = static_cast<std::uint32_t>(a);
    e.schedule_flag_at(step_ends.back(), sim::FlagUpdate::set(flags, index));
  }
  std::vector<ChainWg> chain(kWgs);
  for (std::size_t i = 0; i < kWgs; ++i) {
    chain[i] = ChainWg{{}, &e, &d0, &w, &log, i};
    chain[i].start(cost);
  }
  probe();
  const TimeNs issue = w.issue_latency(0, 1, shmem::World::IssueKind::kStore);
  std::vector<StepAt> dev1(step_ends.size());
  for (std::size_t i = 0; i < step_ends.size(); ++i) {
    e.schedule_at(step_ends[i], probe);
    dev1[i] = StepAt{{&StepAt::run}, &d1, &cost};
    e.schedule_call_at(step_ends[i], &dev1[i]);
    e.schedule_at(step_ends[i] + issue, probe);
  }
  log.events = e.run();
  log.busy0 = d0.busy_ns();
  log.busy1 = d1.busy_ns();
  return log;
}

TEST(Device, CallChainStepsMatchAwaitedSteps) {
  // Pinned to what the same WGs did as coroutines awaiting a compute step
  // and the issue wait, when both forms existed: every end time, active
  // count, flag order, busy time and event count.
  const StepLog chain = run_steps();
  EXPECT_EQ(chain.ends, (std::vector<TimeNs>{279, 406, 533, 659}));
  const std::vector<std::tuple<TimeNs, int, int>> active = {
      {0, 4, 0},   {129, 3, 0}, {256, 2, 0}, {279, 2, 0}, {279, 2, 1},
      {383, 1, 1}, {406, 1, 1}, {406, 1, 2}, {509, 0, 2}, {533, 0, 2},
      {533, 0, 3}, {659, 0, 3}, {659, 0, 4}};
  EXPECT_EQ(chain.active, active);
  EXPECT_EQ(chain.flags, (std::vector<std::uint32_t>{1, 2, 3, 4}));
  EXPECT_EQ(chain.busy0, 1877);
  EXPECT_EQ(chain.busy1, 1024);
  EXPECT_EQ(chain.events, 28u);
  // The pins have teeth: distinct step ends, a nonzero issue wait after
  // each, and every active count from 4 down to 0 seen.
  const TimeNs issue = Machine::Config{}.fabric.store_issue_overhead_ns;
  ASSERT_GT(issue, 0);
  EXPECT_EQ(chain.ends.front(),
            Machine(Machine::Config{}).device(0).step_duration(
                mem_cost(1 << 16), 1) +
                issue);
}

// ---- KernelRun --------------------------------------------------------

/// A test kernel. Each claimed position runs as a call chain on its slot's
/// record: a compute step of `cost` when `compute` is set, else a plain
/// wait of wait_ns(slot) when given, else nothing. Records what the slots
/// did.
struct TestRun : KernelRun {
  TestRun(Device& d, Params p) : KernelRun(d, p) {}
  bool compute = false;
  WorkCost cost;
  TimeNs (*wait_ns)(int slot) = nullptr;
  const std::vector<int>* order = nullptr;  // position -> WG id
  std::vector<int> entered;                 // slots, as they start
  std::vector<int> executed;                // WG ids, as claimed
  std::vector<std::vector<int>> per_slot;   // positions, per slot
  std::vector<std::pair<int, TimeNs>> ends;  // (WG id, its step's end)
  TimeNs drained = -1;                       // the last drain
};

struct TestSlot : KernelRun::Slot {
  int wg;
  bool started;
};

void test_step_end(sim::Call* c);

void test_claim(TestSlot& s) {
  TestRun& r = static_cast<TestRun&>(*s.run);
  if (!s.started) {
    s.started = true;
    r.entered.push_back(s.index);
  }
  const int pos = r.next(s);
  if (pos < 0) {
    r.drained = r.engine().now();
    r.finish(s);
    return;
  }
  s.wg = r.order != nullptr ? (*r.order)[static_cast<std::size_t>(pos)] : pos;
  r.executed.push_back(s.wg);
  if (!r.per_slot.empty()) {
    r.per_slot[static_cast<std::size_t>(s.index)].push_back(pos);
  }
  if (r.compute) {
    r.device().start_step(r.cost, s, &test_step_end);
  } else if (r.wait_ns != nullptr) {
    r.after(r.wait_ns(s.index), s, &test_step_end);
  } else {
    test_claim(s);
  }
}

void test_step_end(sim::Call* c) {
  TestSlot& s = static_cast<TestSlot&>(*c);
  TestRun& r = static_cast<TestRun&>(*s.run);
  if (r.compute) r.device().end_step();
  r.ends.emplace_back(s.wg, r.engine().now());
  test_claim(s);
}

KernelRun::Params params(int slots, int wgs) {
  return {.num_slots = slots, .num_wgs = wgs};
}

TEST(KernelRun, ExecutesEveryPositionOnce) {
  Machine m(one_gpu());
  TestRun run(m.device(0), params(4, 37));
  run.compute = true;
  run.cost = mem_cost(1024);
  run.start(&test_claim);
  m.engine().run();
  EXPECT_TRUE(run.finished());
  std::vector<int> executed = run.executed;
  ASSERT_EQ(executed.size(), 37u);
  std::sort(executed.begin(), executed.end());
  for (int i = 0; i < 37; ++i) EXPECT_EQ(executed[static_cast<size_t>(i)], i);
  EXPECT_EQ(m.device(0).active_wgs(), 0);
}

TEST(KernelRun, OneSlotRunsTheKernelsOrderInPositionOrder) {
  // The kernel's WG ids need not be a permutation of 0..n-1: the runtime
  // hands out positions, and the kernel maps them to whatever ids it runs.
  Machine m(one_gpu());
  const std::vector<int> order = {3, 1, 7, 0};
  TestRun run(m.device(0), params(1, 4));
  run.compute = true;
  run.cost = mem_cost(1024);
  run.order = &order;
  run.start(&test_claim);
  m.engine().run();
  EXPECT_EQ(run.executed, order);
  ASSERT_EQ(run.ends.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(run.ends[i].first, order[i]);
    if (i > 0) {
      EXPECT_LT(run.ends[i - 1].second, run.ends[i].second);
    }
  }
}

TEST(KernelRun, ParallelSlotsOverlapInTime) {
  // ALU throughput is space-partitioned across slots, so 8 equal ALU-bound
  // WGs on 4 slots take ~2 waves, not 8. (Memory-bound WGs at tiny
  // occupancy share one bandwidth pool and would NOT speed up — that is the
  // contention model working, tested in test_hw_hbm.)
  WorkCost alu;
  alu.flops = 1e9;
  TimeNs span[2] = {};
  for (const int slots : {4, 1}) {
    Machine m(one_gpu());
    TestRun run(m.device(0), params(slots, 8));
    run.compute = true;
    run.cost = alu;
    run.start(&test_claim);
    m.engine().run();
    span[slots == 1 ? 1 : 0] = m.engine().now();
  }
  EXPECT_LT(span[0], span[1] / 2);
}

TEST(KernelRun, StartsOncePerActiveSlot) {
  // A record starts once per spawned slot — min(num_slots, work) — not
  // once per logical WG, and surplus slots never start. An empty queue
  // still spawns one slot, so per-slot work after the loop (flag polling)
  // happens.
  struct Case {
    int slots, work;
  };
  for (const Case c :
       {Case{4, 37}, Case{64, 3}, Case{5, 5}, Case{1, 9}, Case{8, 0}}) {
    Machine m(one_gpu());
    TestRun run(m.device(0), params(c.slots, c.work));
    run.wait_ns = [](int) -> TimeNs { return 10; };
    run.start(&test_claim);
    m.engine().run();
    const int expected = std::min(c.slots, std::max(c.work, 1));
    EXPECT_TRUE(run.finished());
    EXPECT_EQ(run.active_slots(), expected);
    std::vector<int> want(static_cast<std::size_t>(expected));
    for (int s = 0; s < expected; ++s) want[static_cast<std::size_t>(s)] = s;
    EXPECT_EQ(run.entered, want) << c.slots << " slots, " << c.work << " WGs";
    EXPECT_EQ(run.executed.size(), static_cast<std::size_t>(c.work));
  }
}

TEST(KernelRun, DispatchOverheadIsAWaitAfterEachClaim) {
  // The overhead is the kernel's to wait out after() a claim; the final,
  // empty claim returns at once.
  struct DispatchRun : KernelRun {
    using KernelRun::KernelRun;
    std::vector<TimeNs> claimed;
    TimeNs drained = -1;
    static void claim(Slot& s) {
      auto& r = static_cast<DispatchRun&>(*s.run);
      if (r.next(s) < 0) {
        r.drained = r.engine().now();
        r.finish(s);
        return;
      }
      r.after(r.dispatch_overhead(), s, &dispatched);
    }
    static void dispatched(sim::Call* c) {
      Slot& s = static_cast<Slot&>(*c);
      auto& r = static_cast<DispatchRun&>(*s.run);
      r.claimed.push_back(r.engine().now());
      claim(s);
    }
  };
  Machine m(one_gpu());
  sim::Engine& e = m.engine();
  DispatchRun run(m.device(0), {.num_slots = 1, .num_wgs = 3,
                                .wg_dispatch_overhead_ns = 100});
  run.start(&DispatchRun::claim);
  EXPECT_EQ(e.run(), 3u);
  EXPECT_EQ(run.claimed, (std::vector<TimeNs>{100, 200, 300}));
  EXPECT_EQ(run.drained, 300);
}

TEST(KernelRun, AChainThatNeverWaitsFinishesInsideStart) {
  Machine m(one_gpu());
  sim::Engine& e = m.engine();
  TestRun run(m.device(0), params(4, 3));
  run.start(&test_claim);
  // The whole kernel ran inside start(): no engine event at all.
  EXPECT_TRUE(run.finished());
  EXPECT_EQ(e.run(), 0u);
  EXPECT_EQ(run.executed.size(), 3u);
  EXPECT_EQ(run.entered, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(run.drained, 0);
}

TEST(KernelRun, StaticAssignmentWalksSlotStride) {
  // Slot 0 is slow, so dynamic claiming would hand its later positions to
  // the other slots.
  const auto slow_slot0 = [](int slot) -> TimeNs {
    return slot == 0 ? 1000 : 10;
  };
  Machine m(one_gpu());
  sim::Engine& e = m.engine();
  TestRun run(m.device(0),
              {.num_slots = 3, .num_wgs = 7, .static_assignment = true});
  run.wait_ns = slow_slot0;
  run.per_slot.resize(3);
  run.start(&test_claim);
  e.run();
  EXPECT_TRUE(run.finished());
  // Slot s takes positions s, s + 3, s + 6, ...
  EXPECT_EQ(run.per_slot[0], (std::vector<int>{0, 3, 6}));
  EXPECT_EQ(run.per_slot[1], (std::vector<int>{1, 4}));
  EXPECT_EQ(run.per_slot[2], (std::vector<int>{2, 5}));

  // Without static assignment the fast slots drain the queue while slot 0
  // is still busy with its first WG.
  Machine m2(one_gpu());
  sim::Engine& e2 = m2.engine();
  TestRun dynamic(m2.device(0), params(3, 7));
  dynamic.wait_ns = slow_slot0;
  dynamic.per_slot.resize(3);
  dynamic.start(&test_claim);
  e2.run();
  EXPECT_EQ(dynamic.per_slot[0], (std::vector<int>{0}));
  EXPECT_EQ(dynamic.per_slot[1].size() + dynamic.per_slot[2].size(), 6u);
}

// ---- Runtime cost: per launch, never per slot or WG ----------------------

/// A kernel whose WGs each wait 10 ns, recording nothing. Once its queue
/// drains, slot s polls flags [0][s], [0][s + active], ... < `waits` of
/// `flags` for 1, the way the fused kernels poll theirs: a chain flag wait
/// on its record.
struct PollRun : KernelRun {
  PollRun(Device& d, Params p) : KernelRun(d, p) {}
  shmem::FlagArray* flags = nullptr;
  int waits = 0;

  struct Rec : Slot {
    int flag;  // the poll's position
  };
  static void claim(Rec& s) {
    PollRun& r = static_cast<PollRun&>(*s.run);
    if (r.next(s) >= 0) {
      r.after(10, s, &waited);
      return;
    }
    s.flag = s.index;
    poll(&s);
  }
  static void waited(sim::Call* c) { claim(static_cast<Rec&>(*c)); }
  static void poll(sim::Call* c) {
    Rec& s = static_cast<Rec&>(*c);
    PollRun& r = static_cast<PollRun&>(*s.run);
    const auto one = [](int) -> std::uint64_t { return 1; };
    if (r.waits == 0 || !r.flags->poll_then(0, s.flag, r.active_slots(),
                                            r.waits, one, s, &poll)) {
      r.finish(s);
    }
  }
};

struct LaunchHeap {
  std::size_t allocations = 0;  // operator new calls during the launch
  std::size_t live = 0;         // of those, still allocated after it
};

/// Heap traffic of one launch (construct, start, run to idle, raise the
/// first `waits` flags, run to idle) of `wgs` positions on `slots` slots.
/// The engine keeps its pooled queue storage across launches (run_until
/// never releases it), and the flags their freed waiter nodes, so once
/// warm they add nothing and the count is the runtime's own.
LaunchHeap launch_heap(Device& d, shmem::FlagArray& flags, int slots, int wgs,
                       int waits, bool static_assignment) {
  sim::Engine& e = d.engine();
  const std::size_t news = g_news, deletes = g_deletes;
  {
    PollRun run(d, {.num_slots = slots,
                    .num_wgs = wgs,
                    .static_assignment = static_assignment});
    run.flags = &flags;
    run.waits = waits;
    run.start(&PollRun::claim);
    e.run_until(e.now() + 1'000'000);
    EXPECT_EQ(run.finished(), waits == 0);
    EXPECT_EQ(flags.total_waiters(), static_cast<std::size_t>(waits));
    for (int i = 0; i < waits; ++i) {
      flags.set(0, static_cast<std::size_t>(i), 1);
    }
    e.run_until(e.now() + 1'000'000);
    EXPECT_TRUE(run.finished());
  }
  flags.reset();
  return {g_news - news, (g_news - news) - (g_deletes - deletes)};
}

TEST(KernelRun, WarmLaunchAllocatesItsRecordsOnly) {
  Machine m(one_gpu());
  Device& d = m.device(0);
  shmem::FlagArray flags(m.engine(), 1, 8);
  for (const bool static_assignment : {false, true}) {
    for (const int waits : {0, 3, 8}) {
      // Warm the engine's pools and the flags' waiter nodes.
      launch_heap(d, flags, 8, 800, waits, static_assignment);
      for (const int wgs : {8, 800}) {
        const LaunchHeap h =
            launch_heap(d, flags, 8, wgs, waits, static_assignment);
        // One array for every slot record: nothing per slot, position or
        // flag wait, no order, no cursors, no coroutine frame.
        EXPECT_EQ(h.allocations, 1u) << wgs << " positions, " << waits
                                     << " waits, static "
                                     << static_assignment;
        EXPECT_EQ(h.live, 0u) << "a launch allocation outlived its kernel";
      }
    }
  }
}

TEST(KernelRun, RecordsOutliveAThrowWhileSlotsWaitOnFlags) {
  // An event throws out of run() while every slot sits in a chain flag
  // wait, registered on its record. The records must outlive the throw:
  // the flags come up, every slot finishes, and only then does the
  // KernelRun free them — nothing leaks, nothing dangles.
  Machine m(one_gpu());
  sim::Engine& e = m.engine();
  shmem::FlagArray flags(e, 1, 4);
  launch_heap(m.device(0), flags, 4, 12, 4, false);  // warm the pools
  e.schedule_at(e.now() + 1, [] {});
  e.run_until(e.now() + 1);
  const TimeNs t0 = e.now();
  const std::size_t news = g_news, deletes = g_deletes;
  const auto live = [&] { return (g_news - news) - (g_deletes - deletes); };
  {
    PollRun run(m.device(0), {.num_slots = 4, .num_wgs = 12});
    run.flags = &flags;
    run.waits = 4;
    run.start(&PollRun::claim);
    // Every slot drains at t0 + 30 and waits on its flag.
    e.schedule_at(t0 + 35, [] { FCC_CHECK_MSG(false, "failure mid-kernel"); });
    EXPECT_THROW(e.run(), std::logic_error);
    EXPECT_EQ(e.now(), t0 + 35);
    EXPECT_FALSE(run.finished());
    EXPECT_EQ(e.pending(), 0u);
    EXPECT_EQ(flags.total_waiters(), 4u);
    EXPECT_EQ(live(), 1u);  // the records
    for (std::size_t i = 0; i < 4; ++i) flags.set(0, i, 1);
    EXPECT_EQ(e.run_until(t0 + 1'000), 4u);  // one wake call per slot
    EXPECT_TRUE(run.finished());
    EXPECT_EQ(live(), 1u);
  }
  EXPECT_EQ(live(), 0u);
}

}  // namespace
}  // namespace fcc::gpu
