// Persistent-kernel runtime and Device compute model.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gpu/device.h"
#include "gpu/machine.h"
#include "gpu/persistent.h"
#include "gpu/stream.h"
#include "sim/engine.h"

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
  WorkCost mem_only{1 << 20, 0, 1.0, {}};
  WorkCost alu_only{0, 1e9, 1.0, {}};
  WorkCost both{1 << 20, 1e9, 1.0, {}};
  EXPECT_EQ(d.compute_duration(both, 1),
            std::max(d.compute_duration(mem_only, 1),
                     d.compute_duration(alu_only, 1)));
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

sim::Co count_body(Machine& m, std::vector<int>& executed, int lw) {
  executed.push_back(lw);
  co_await m.device(0).compute(mem_cost(1024));
}

TEST(KernelRun, ExecutesEveryLogicalWgOnce) {
  Machine m(one_gpu());
  std::vector<int> executed;
  KernelRun::Params p;
  p.num_slots = 4;
  for (int i = 0; i < 37; ++i) p.order.push_back(i);
  p.body = [&](int, int lw) { return count_body(m, executed, lw); };
  KernelRun run(m.engine(), p);
  run.start();
  m.engine().run();
  EXPECT_TRUE(run.finished());
  EXPECT_EQ(executed.size(), 37u);
  std::sort(executed.begin(), executed.end());
  for (int i = 0; i < 37; ++i) EXPECT_EQ(executed[static_cast<size_t>(i)], i);
}

TEST(KernelRun, RespectsExecutionOrderWithOneSlot) {
  Machine m(one_gpu());
  std::vector<int> executed;
  KernelRun::Params p;
  p.num_slots = 1;
  p.order = {3, 1, 2, 0};
  p.body = [&](int, int lw) { return count_body(m, executed, lw); };
  KernelRun run(m.engine(), p);
  run.start();
  m.engine().run();
  EXPECT_EQ(executed, (std::vector<int>{3, 1, 2, 0}));
}

TEST(KernelRun, MoreSlotsThanWorkStillCompletes) {
  Machine m(one_gpu());
  std::vector<int> executed;
  KernelRun::Params p;
  p.num_slots = 64;
  p.order = {0, 1};
  p.body = [&](int, int lw) { return count_body(m, executed, lw); };
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

TEST(KernelRun, ParallelSlotsOverlapInTime) {
  // ALU throughput is space-partitioned across slots, so 8 equal ALU-bound
  // WGs on 4 slots take ~2 waves, not 8. (Memory-bound WGs at tiny
  // occupancy share one bandwidth pool and would NOT speed up — that is the
  // contention model working, tested in test_hw_hbm.)
  Machine m(one_gpu());
  KernelRun::Params p;
  p.num_slots = 4;
  for (int i = 0; i < 8; ++i) p.order.push_back(i);
  p.body = [&](int, int) -> sim::Co {
    co_await m.device(0).compute(alu_cost(1e9));
  };
  KernelRun run(m.engine(), p);
  run.start();
  m.engine().run();
  const TimeNs t_parallel = m.engine().now();

  Machine m2(one_gpu());
  KernelRun::Params p2;
  p2.num_slots = 1;
  for (int i = 0; i < 8; ++i) p2.order.push_back(i);
  p2.body = [&](int, int) -> sim::Co {
    co_await m2.device(0).compute(alu_cost(1e9));
  };
  KernelRun run2(m2.engine(), p2);
  run2.start();
  m2.engine().run();
  const TimeNs t_serial = m2.engine().now();
  EXPECT_LT(t_parallel, t_serial / 2);
}

TEST(KernelRun, RecordsFinishTimes) {
  Machine m(one_gpu());
  KernelRun::Params p;
  p.num_slots = 1;
  p.order = {0, 1};
  p.body = [&](int, int) -> sim::Co {
    co_await m.device(0).compute(mem_cost(1024));
  };
  KernelRun run(m.engine(), p);
  run.record_finish_times(true);
  run.start();
  m.engine().run();
  ASSERT_EQ(run.finish_times().size(), 2u);
  EXPECT_LT(run.finish_times()[0], run.finish_times()[1]);
}

sim::Co fixed_cost_kernel(Machine& m, TimeNs dur) {
  co_await sim::delay(m.engine(), dur);
}

sim::Task stream_driver(sim::Engine& e, Machine& m, Stream& s, TimeNs& done) {
  s.enqueue([&m] { return fixed_cost_kernel(m, 1000); });
  s.enqueue([&m] { return fixed_cost_kernel(m, 2000); });
  co_await s.sync();
  done = e.now();
}

TEST(Stream, PipelinesLaunchesAndChargesBoundaryOverheads) {
  Machine m(one_gpu());
  Stream s(m.engine(), m.device(0).spec());
  TimeNs done = 0;
  stream_driver(m.engine(), m, s, done);
  m.engine().run();
  const auto& spec = m.device(0).spec();
  // Only the first launch is exposed: the second kernel's launch_ready
  // (t0 + launch + one host-issue gap) lands before kernel 1 finishes.
  EXPECT_EQ(done, spec.kernel_launch_ns + 1000 + 2000 + spec.stream_sync_ns);
}

TEST(Stream, IdleStreamExposesLaunchLatency) {
  Machine m(one_gpu());
  Stream s(m.engine(), m.device(0).spec());
  TimeNs done = 0;
  struct Driver {
    static sim::Task go(sim::Engine& e, Machine& m2, Stream& st, TimeNs& out) {
      auto ev = st.enqueue([&m2] { return fixed_cost_kernel(m2, 500); });
      co_await ev->wait();
      out = e.now();
    }
  };
  Driver::go(m.engine(), m, s, done);
  m.engine().run();
  EXPECT_EQ(done, m.device(0).spec().kernel_launch_ns + 500);
}

}  // namespace
}  // namespace fcc::gpu
