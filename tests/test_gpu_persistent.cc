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
#include "shmem/world.h"
#include "sim/engine.h"
#include "sim/flag_update.h"
#include "sim/task.h"

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
// table entries up to the slot count, the formula past it.
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
    d.tabulate(cost, max_slots);
    ASSERT_EQ(cost.by_active.size(), static_cast<std::size_t>(max_slots) + 1)
        << name;
    for (int a = 1; a <= 4 * max_slots; ++a) {
      ASSERT_EQ(d.step_duration(cost, a), d.compute_duration(plain, a))
          << name << " at " << a << " active";
      ASSERT_EQ(d.step_duration(plain, a), d.compute_duration(plain, a))
          << name << " untabulated at " << a << " active";
    }
  }
  // A short table (a small launch) falls back past its end.
  WorkCost small = costs[0].second;
  d.tabulate(small, 3);
  ASSERT_EQ(small.by_active.size(), 4u);
  for (int a = 1; a <= 8; ++a) {
    EXPECT_EQ(d.step_duration(small, a), d.compute_duration(small, a));
  }
}

WorkCost mem_cost(Bytes bytes) {
  WorkCost c;
  c.hbm_bytes = bytes;
  return c;
}

sim::Task compute_wg(sim::Engine& e, Device& d, WorkCost cost, TimeNs& done) {
  co_await d.compute(cost);
  done = e.now();
}

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
  TimeNs done1 = -1, done2 = -1;
  compute_wg(m.engine(), d, cost, done1);
  compute_wg(m.engine(), d, cost, done2);
  EXPECT_EQ(d.active_wgs(), 2);
  m.engine().run();
  EXPECT_EQ(done1, d1);
  EXPECT_EQ(done2, d2);
  EXPECT_EQ(d.active_wgs(), 0);
  EXPECT_EQ(d.busy_ns(), d1 + d2);
}

/// What a run of concurrent WG steps records, for comparing two ways of
/// awaiting them.
struct StepLog {
  std::vector<TimeNs> ends;  // per device-0 WG: its resume after the wait
  int resumed = 0;           // device-0 WGs resumed so far
  /// (now, device 0's active WGs, WGs resumed), at every probe and resume.
  std::vector<std::tuple<TimeNs, int, int>> active;
  std::vector<std::uint32_t> flags;  // flag indices, as applied
  TimeNs busy0 = 0;
  TimeNs busy1 = 0;
  std::size_t events = 0;
};

/// One device-0 WG: a compute step, then a zero-copy store's issue wait,
/// as compute_then_wait or as compute plus World::issue.
sim::Task step_and_issue(sim::Engine& e, Device& d, shmem::World& w,
                         const WorkCost& cost, bool step_end, StepLog& log,
                         std::size_t i) {
  if (step_end) {
    co_await d.compute_then_wait(
        cost, w.issue_latency(0, 1, shmem::World::IssueKind::kStore));
  } else {
    co_await d.compute(cost);
    co_await w.issue(0, 1, shmem::World::IssueKind::kStore);
  }
  log.ends[i] = e.now();
  log.active.emplace_back(e.now(), d.active_wgs(), ++log.resumed);
}

/// A device-1 WG whose step starts at `t`.
sim::Task step_at(sim::Engine& e, Device& d, const WorkCost& cost, TimeNs t) {
  co_await sim::delay_until(e, t);
  co_await d.compute(cost);
}

StepLog run_steps(bool step_end) {
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
  // the issue wait, when the WG resumes.
  std::vector<TimeNs> step_ends;
  for (int a = 1; a <= kWgs; ++a) {
    step_ends.push_back(d0.step_duration(cost, a));
    const auto index = static_cast<std::uint32_t>(a);
    e.schedule_flag_at(step_ends.back(), sim::FlagUpdate::set(flags, index));
  }
  for (std::size_t i = 0; i < kWgs; ++i) {
    step_and_issue(e, d0, w, cost, step_end, log, i);
  }
  probe();
  const TimeNs issue = w.issue_latency(0, 1, shmem::World::IssueKind::kStore);
  for (const TimeNs t : step_ends) {
    e.schedule_at(t, probe);
    step_at(e, d1, cost, t);
    e.schedule_at(t + issue, probe);
  }
  log.events = e.run();
  log.busy0 = d0.busy_ns();
  log.busy1 = d1.busy_ns();
  return log;
}

TEST(Device, ComputeThenWaitMatchesComputeThenIssue) {
  const StepLog plain = run_steps(false);
  const StepLog step_end = run_steps(true);
  EXPECT_EQ(step_end.ends, plain.ends);
  EXPECT_EQ(step_end.active, plain.active);
  EXPECT_EQ(step_end.flags, plain.flags);
  EXPECT_EQ(step_end.busy0, plain.busy0);
  EXPECT_EQ(step_end.busy1, plain.busy1);
  EXPECT_EQ(step_end.events, plain.events);
  // The comparison has teeth: distinct step ends, a nonzero issue wait
  // after each, and every active count from 4 down to 0 seen.
  const TimeNs issue = Machine::Config{}.fabric.store_issue_overhead_ns;
  ASSERT_GT(issue, 0);
  std::vector<TimeNs> ends = plain.ends;
  std::sort(ends.begin(), ends.end());
  EXPECT_EQ(std::adjacent_find(ends.begin(), ends.end()), ends.end());
  EXPECT_EQ(ends.front(), Machine(Machine::Config{}).device(0).step_duration(
                              mem_cost(1 << 16), 1) +
                              issue);
  for (int a = 0; a <= 4; ++a) {
    EXPECT_NE(std::find_if(plain.active.begin(), plain.active.end(),
                           [a](const auto& p) { return std::get<1>(p) == a; }),
              plain.active.end())
        << a << " active WGs never seen";
  }
}

/// Slot body: records every claimed position, mapped through `order` when
/// given (the way an operator maps positions to its own WG order), then
/// computes it.
sim::Co count_slot(KernelRun& run, Machine& m, std::vector<int>& executed,
                   const std::vector<int>* order, int slot) {
  for (int pos; (pos = co_await run.next(slot)) >= 0;) {
    executed.push_back(order != nullptr
                           ? (*order)[static_cast<std::size_t>(pos)]
                           : pos);
    co_await m.device(0).compute(mem_cost(1024));
  }
}

KernelRun::SlotBody counting(Machine& m, std::vector<int>& executed,
                             const std::vector<int>* order = nullptr) {
  return [&m, &executed, order](KernelRun& run, int slot) {
    return count_slot(run, m, executed, order, slot);
  };
}

TEST(KernelRun, ExecutesEveryPositionOnce) {
  Machine m(one_gpu());
  std::vector<int> executed;
  KernelRun::Params p;
  p.num_slots = 4;
  p.num_wgs = 37;
  p.body = counting(m, executed);
  KernelRun run(m.engine(), p);
  run.start();
  m.engine().run();
  EXPECT_TRUE(run.finished());
  EXPECT_EQ(executed.size(), 37u);
  std::sort(executed.begin(), executed.end());
  for (int i = 0; i < 37; ++i) EXPECT_EQ(executed[static_cast<size_t>(i)], i);
}

TEST(KernelRun, OneSlotRunsTheBodysOrderInPositionOrder) {
  Machine m(one_gpu());
  std::vector<int> executed;
  const std::vector<int> order = {3, 1, 2, 0};
  KernelRun::Params p;
  p.num_slots = 1;
  p.num_wgs = 4;
  p.body = counting(m, executed, &order);
  KernelRun run(m.engine(), p);
  run.start();
  m.engine().run();
  EXPECT_EQ(executed, order);
}

TEST(KernelRun, MoreSlotsThanWorkStillCompletes) {
  Machine m(one_gpu());
  std::vector<int> executed;
  KernelRun::Params p;
  p.num_slots = 64;
  p.num_wgs = 2;
  p.body = counting(m, executed);
  KernelRun run(m.engine(), p);
  run.start();
  m.engine().run();
  EXPECT_TRUE(run.finished());
  EXPECT_EQ(executed.size(), 2u);
  EXPECT_EQ(m.engine().live_tasks(), 0);
}

WorkCost alu_cost(double flops) {
  WorkCost c;
  c.flops = flops;
  return c;
}

sim::Co alu_slot(KernelRun& run, Machine& m, int slot) {
  for (int pos; (pos = co_await run.next(slot)) >= 0;) {
    co_await m.device(0).compute(alu_cost(1e9));
  }
}

TEST(KernelRun, ParallelSlotsOverlapInTime) {
  // ALU throughput is space-partitioned across slots, so 8 equal ALU-bound
  // WGs on 4 slots take ~2 waves, not 8. (Memory-bound WGs at tiny
  // occupancy share one bandwidth pool and would NOT speed up — that is the
  // contention model working, tested in test_hw_hbm.)
  Machine m(one_gpu());
  KernelRun::Params p;
  p.num_slots = 4;
  p.num_wgs = 8;
  p.body = [&m](KernelRun& r, int slot) { return alu_slot(r, m, slot); };
  KernelRun run(m.engine(), p);
  run.start();
  m.engine().run();
  const TimeNs t_parallel = m.engine().now();

  Machine m2(one_gpu());
  KernelRun::Params p2;
  p2.num_slots = 1;
  p2.num_wgs = 8;
  p2.body = [&m2](KernelRun& r, int slot) { return alu_slot(r, m2, slot); };
  KernelRun run2(m2.engine(), p2);
  run2.start();
  m2.engine().run();
  const TimeNs t_serial = m2.engine().now();
  EXPECT_LT(t_parallel, t_serial / 2);
}

/// Slot body that stamps (logical WG, finish time) pairs, its WG ids the
/// body's own `ids` at each position.
sim::Co stamping_slot(KernelRun& run, Machine& m, const std::vector<int>& ids,
                      std::vector<std::pair<int, TimeNs>>& finished,
                      int slot) {
  for (int pos; (pos = co_await run.next(slot)) >= 0;) {
    co_await m.device(0).compute(mem_cost(1024));
    finished.emplace_back(ids[static_cast<std::size_t>(pos)],
                          m.engine().now());
  }
}

TEST(KernelRun, SlotBodyStampsFinishTimesInOrder) {
  // The body's WG ids need not be a permutation of 0..n-1: the runtime
  // hands out positions, and stamps are keyed by whatever ids the body maps
  // them to.
  Machine m(one_gpu());
  std::vector<std::pair<int, TimeNs>> finished;
  const std::vector<int> ids = {5, 7};
  KernelRun::Params p;
  p.num_slots = 1;
  p.num_wgs = 2;
  p.body = [&](KernelRun& r, int slot) {
    return stamping_slot(r, m, ids, finished, slot);
  };
  KernelRun run(m.engine(), p);
  run.start();
  m.engine().run();
  ASSERT_EQ(finished.size(), 2u);
  EXPECT_EQ(finished[0].first, 5);
  EXPECT_EQ(finished[1].first, 7);
  EXPECT_LT(finished[0].second, finished[1].second);
}

/// Slot body that drains the queue without doing any work.
sim::Co draining_slot(KernelRun& run, std::vector<int>& entered, int slot) {
  entered.push_back(slot);
  for (int pos; (pos = co_await run.next(slot)) >= 0;) {
  }
}

TEST(KernelRun, SlotBodyRunsOncePerActiveSlot) {
  // The body is entered once per spawned slot — min(num_slots, work) — not
  // once per logical WG, and surplus slots never enter it. An empty queue
  // still spawns one slot, so per-slot work after the loop (flag polling)
  // happens.
  struct Case {
    int slots, work;
  };
  for (const Case c :
       {Case{4, 37}, Case{64, 3}, Case{5, 5}, Case{1, 9}, Case{8, 0}}) {
    Machine m(one_gpu());
    std::vector<int> entered;
    KernelRun::Params p;
    p.num_slots = c.slots;
    p.num_wgs = c.work;
    p.body = [&entered](KernelRun& r, int slot) {
      return draining_slot(r, entered, slot);
    };
    KernelRun run(m.engine(), p);
    run.start();
    m.engine().run();
    const int expected = std::min(c.slots, std::max(c.work, 1));
    EXPECT_TRUE(run.finished());
    EXPECT_EQ(run.active_slots(), expected);
    std::sort(entered.begin(), entered.end());
    std::vector<int> want(static_cast<std::size_t>(expected));
    for (int s = 0; s < expected; ++s) want[static_cast<std::size_t>(s)] = s;
    EXPECT_EQ(entered, want) << c.slots << " slots, " << c.work << " WGs";
  }
}

/// Slot body that stamps the time each claim returns.
sim::Co claim_stamping_slot(KernelRun& run, Machine& m,
                            std::vector<TimeNs>& claimed, TimeNs& drained,
                            int slot) {
  for (int pos; (pos = co_await run.next(slot)) >= 0;) {
    claimed.push_back(m.engine().now());
  }
  drained = m.engine().now();
}

TEST(KernelRun, DispatchOverheadPaidOncePerClaimedWg) {
  Machine m(one_gpu());
  std::vector<TimeNs> claimed;
  TimeNs drained = -1;
  KernelRun::Params p;
  p.num_slots = 1;
  p.num_wgs = 3;
  p.wg_dispatch_overhead_ns = 100;
  p.body = [&](KernelRun& r, int slot) {
    return claim_stamping_slot(r, m, claimed, drained, slot);
  };
  KernelRun run(m.engine(), p);
  run.start();
  const std::size_t events = m.engine().run();
  EXPECT_EQ(claimed, (std::vector<TimeNs>{100, 200, 300}));
  // The final, empty claim returns at once: no fourth overhead.
  EXPECT_EQ(drained, 300);
  EXPECT_EQ(events, 3u);
}

TEST(KernelRun, ZeroDispatchOverheadNeverSuspends) {
  Machine m(one_gpu());
  std::vector<TimeNs> claimed;
  TimeNs drained = -1;
  KernelRun::Params p;
  p.num_slots = 1;
  p.num_wgs = 3;
  p.body = [&](KernelRun& r, int slot) {
    return claim_stamping_slot(r, m, claimed, drained, slot);
  };
  KernelRun run(m.engine(), p);
  run.start();
  // The whole slot ran inside start(): no engine event at all.
  EXPECT_TRUE(run.finished());
  EXPECT_EQ(m.engine().run(), 0u);
  EXPECT_EQ(claimed, (std::vector<TimeNs>{0, 0, 0}));
  EXPECT_EQ(drained, 0);
}

/// Slot body recording which positions each slot claimed; slot 0 is slow,
/// so dynamic claiming would hand its later positions to the other slots.
sim::Co assignment_slot(KernelRun& run, Machine& m,
                        std::vector<std::vector<int>>& per_slot, int slot) {
  for (int pos; (pos = co_await run.next(slot)) >= 0;) {
    per_slot[static_cast<std::size_t>(slot)].push_back(pos);
    co_await sim::delay(m.engine(), slot == 0 ? 1000 : 10);
  }
}

TEST(KernelRun, StaticAssignmentWalksSlotStride) {
  Machine m(one_gpu());
  std::vector<std::vector<int>> per_slot(3);
  KernelRun::Params p;
  p.num_slots = 3;
  p.num_wgs = 7;
  p.static_assignment = true;
  p.body = [&](KernelRun& r, int slot) {
    return assignment_slot(r, m, per_slot, slot);
  };
  KernelRun run(m.engine(), p);
  run.start();
  m.engine().run();
  EXPECT_TRUE(run.finished());
  // Slot s takes positions s, s + 3, s + 6, ...
  EXPECT_EQ(per_slot[0], (std::vector<int>{0, 3, 6}));
  EXPECT_EQ(per_slot[1], (std::vector<int>{1, 4}));
  EXPECT_EQ(per_slot[2], (std::vector<int>{2, 5}));
}

TEST(KernelRun, DynamicClaimingBackfillsIdleSlots) {
  // Same kernel without static assignment: the fast slots drain the queue
  // while slot 0 is still busy with its first WG.
  Machine m(one_gpu());
  std::vector<std::vector<int>> per_slot(3);
  KernelRun::Params p;
  p.num_slots = 3;
  p.num_wgs = 7;
  p.body = [&](KernelRun& r, int slot) {
    return assignment_slot(r, m, per_slot, slot);
  };
  KernelRun run(m.engine(), p);
  run.start();
  m.engine().run();
  EXPECT_EQ(per_slot[0], (std::vector<int>{0}));
  EXPECT_EQ(per_slot[1].size() + per_slot[2].size(), 6u);
}

// ---- Runtime cost: per slot, never per WG -------------------------------

/// Slot body that spends 10 ns per claimed position.
sim::Co delay_slot(KernelRun& run, sim::Engine& e, int slot) {
  for (int pos; (pos = co_await run.next(slot)) >= 0;) {
    co_await sim::delay(e, 10);
  }
}

struct LaunchHeap {
  std::size_t allocations = 0;  // operator new calls during the launch
  std::size_t live = 0;         // of those, still allocated after it
};

/// Heap traffic of one launch (construct, start, run to idle) of `wgs`
/// positions on `slots` slots. The engine keeps its pooled queue storage
/// across launches (run_until never releases it), so once warm it adds
/// nothing and the count is the runtime's own.
LaunchHeap launch_heap(sim::Engine& e, int slots, int wgs,
                       bool static_assignment) {
  KernelRun::Params p;
  p.num_slots = slots;
  p.num_wgs = wgs;
  p.static_assignment = static_assignment;
  p.body = [&e](KernelRun& r, int slot) { return delay_slot(r, e, slot); };
  const std::size_t news = g_news, deletes = g_deletes;
  {
    KernelRun run(e, std::move(p));
    run.start();
    e.run_until(e.now() + 1'000'000);
    EXPECT_TRUE(run.finished());
  }
  return {g_news - news, (g_news - news) - (g_deletes - deletes)};
}

TEST(KernelRun, WarmLaunchAllocatesOneBlockOnly) {
  sim::Engine e;
  for (const bool static_assignment : {false, true}) {
    launch_heap(e, 8, 800, static_assignment);  // warm the engine's pools
    for (const int wgs : {8, 800}) {
      const LaunchHeap h = launch_heap(e, 8, wgs, static_assignment);
      // One block for every slot frame, plus under static assignment the
      // per-slot cursor array: nothing per slot or position, no order.
      EXPECT_EQ(h.allocations, 1u + (static_assignment ? 1u : 0u))
          << wgs << " positions, static " << static_assignment;
      EXPECT_EQ(h.live, 0u) << "a launch block outlived its kernel";
    }
  }
}

TEST(KernelRun, BodyThatNeverSuspendsFinishesInsideStart) {
  sim::Engine e;
  std::vector<int> entered;
  KernelRun::Params p;
  p.num_slots = 4;
  p.num_wgs = 3;
  p.body = [&entered](KernelRun& r, int slot) {
    return draining_slot(r, entered, slot);
  };
  entered.reserve(8);
  const std::size_t news = g_news, deletes = g_deletes;
  {
    KernelRun run(e, std::move(p));
    run.start();
    // Every slot drained within start(): joined, its frame ended in the
    // one block, which lives as long as the KernelRun.
    EXPECT_TRUE(run.finished());
    EXPECT_EQ(g_news - news, 1u);
    EXPECT_EQ(g_deletes - deletes, 0u);
  }
  EXPECT_EQ(g_deletes - deletes, 1u);
  EXPECT_EQ(e.run(), 0u);
  EXPECT_EQ(entered, (std::vector<int>{0, 1, 2}));
}

/// Nested subroutine of nested_slot: one 5 ns step.
sim::Co nested_step(sim::Engine& e, std::vector<int>& done, int pos) {
  co_await sim::delay(e, 5);
  done.push_back(pos);
}

/// Slot body that awaits a nested sim::Co per claimed position.
sim::Co nested_slot(KernelRun& run, sim::Engine& e, std::vector<int>& done,
                    int slot) {
  for (int pos; (pos = co_await run.next(slot)) >= 0;) {
    co_await nested_step(e, done, pos);
  }
}

/// A launch of `wgs` positions on 4 slots running nested_slot, recording
/// finished positions in `done`.
KernelRun::Params nested_launch(sim::Engine& e, std::vector<int>& done,
                                int wgs) {
  KernelRun::Params p;
  p.num_slots = 4;
  p.num_wgs = wgs;
  p.body = [&e, &done](KernelRun& r, int slot) {
    return nested_slot(r, e, done, slot);
  };
  return p;
}

TEST(KernelRun, NestedCoFramesStayOnTheHeap) {
  // The slot frames share the launch's block; each awaited sim::Co frame
  // is its own heap allocation, freed when its await ends.
  sim::Engine e;
  std::vector<int> done;
  done.reserve(32);
  {
    KernelRun warm(e, nested_launch(e, done, 10));  // warm the engine's pools
    warm.start();
    e.run_until(e.now() + 1'000);
  }
  done.clear();
  const TimeNs t0 = e.now();
  KernelRun::Params p = nested_launch(e, done, 10);
  const std::size_t news = g_news, deletes = g_deletes;
  {
    KernelRun run(e, std::move(p));
    run.start();
    EXPECT_EQ(e.run_until(t0 + 1'000), 10u);
    EXPECT_TRUE(run.finished());
    EXPECT_EQ(g_news - news, 1u + 10u);
    EXPECT_EQ(g_deletes - deletes, 10u);
  }
  EXPECT_EQ(g_deletes - deletes, 11u);
  std::sort(done.begin(), done.end());
  EXPECT_EQ(done, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

/// delay_slot with a larger frame: a buffer that lives across each delay.
sim::Co wide_delay_slot(KernelRun& run, sim::Engine& e, int slot) {
  for (int pos; (pos = co_await run.next(slot)) >= 0;) {
    volatile char pad[256] = {};
    pad[pos % 256] = 1;
    co_await sim::delay(e, 10);
    EXPECT_EQ(pad[pos % 256], 1);
  }
}

TEST(KernelRun, ASlotFrameOfAnotherSizeGoesToTheHeap) {
  // The block's stride is the first slot frame's size; the last slot's
  // body has a larger frame, which must not overrun the block.
  sim::Engine e;
  launch_heap(e, 4, 40, false);  // warm the engine's pools
  KernelRun::Params p;
  p.num_slots = 4;
  p.num_wgs = 40;
  p.body = [&e](KernelRun& r, int slot) {
    return slot == 3 ? wide_delay_slot(r, e, slot) : delay_slot(r, e, slot);
  };
  const std::size_t news = g_news, deletes = g_deletes;
  {
    KernelRun run(e, std::move(p));
    run.start();
    EXPECT_EQ(g_news - news, 2u);  // the block, and the wide frame
    e.run_until(e.now() + 1'000);
    EXPECT_TRUE(run.finished());
    EXPECT_EQ(g_deletes - deletes, 1u);  // the wide frame, at its end
  }
  EXPECT_EQ(g_deletes - deletes, 2u);
}

TEST(KernelRun, ThrowMidFlightKeepsTheBlockUntilTheSlotsFinish) {
  // An event throws out of run() while every slot is suspended with a
  // resume pending into the block. The block must outlive those events:
  // the run resumes, the slots finish, and only the KernelRun frees it.
  sim::Engine e;
  std::vector<int> done;
  done.reserve(16);
  std::size_t deletes = 0;
  {
    KernelRun run(e, nested_launch(e, done, 12));
    run.start();
    e.schedule_at(7, [] { FCC_CHECK_MSG(false, "failure mid-kernel"); });
    EXPECT_THROW(e.run(), std::logic_error);
    EXPECT_EQ(e.now(), 7);
    EXPECT_FALSE(run.finished());
    EXPECT_EQ(e.pending(), 4u);
    EXPECT_EQ(done.size(), 4u);
    deletes = g_deletes;
    EXPECT_EQ(e.run_until(1'000), 8u);
    EXPECT_TRUE(run.finished());
    // Only the eight nested frames of the resumed run were freed.
    EXPECT_EQ(g_deletes - deletes, 8u);
  }
  EXPECT_EQ(g_deletes - deletes, 9u);
  EXPECT_EQ(done.size(), 12u);
}

TEST(KernelRun, ZeroWorkLaunchRunsOneSlotAndJoins) {
  sim::Engine e;
  std::vector<int> entered;
  KernelRun::Params p;
  p.num_slots = 8;
  p.num_wgs = 0;
  p.body = [&entered](KernelRun& r, int slot) {
    return draining_slot(r, entered, slot);
  };
  entered.reserve(8);
  const std::size_t news = g_news, deletes = g_deletes;
  KernelRun run(e, std::move(p));
  run.start();
  EXPECT_TRUE(run.finished());
  EXPECT_EQ(run.active_slots(), 1);
  // The one slot's block, freed with the KernelRun.
  EXPECT_EQ(g_news - news, 1u);
  EXPECT_EQ(g_deletes - deletes, 0u);
  EXPECT_EQ(entered, (std::vector<int>{0}));
  EXPECT_EQ(e.run(), 0u);
}

}  // namespace
}  // namespace fcc::gpu
