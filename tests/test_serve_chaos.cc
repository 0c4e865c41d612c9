// Chaos suite: seeded fault schedules driven through the serving layer.
// Faults are ordinary engine events, so (trace seed, chaos seed) fully
// determines every record, counter, and sketch — across fresh simulators,
// across sweep-runner thread counts, and with the no-event FaultPlan
// byte-identical to a run that never heard of faults.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "chaos_plan.h"
#include "gpu/machine.h"
#include "hw/fault.h"
#include "hw/topology.h"
#include "serve/arrivals.h"
#include "serve/catalog.h"
#include "serve/simulator.h"
#include "shmem/world.h"
#include "sweep_runner.h"

namespace fcc::serve {
namespace {

/// Two nodes x four GPUs on a dual-rail fabric: the redundant topology, so
/// chaos can kill a rail and the server keeps answering.
gpu::Machine::Config two_node_dual_rail() {
  gpu::Machine::Config mc;
  mc.num_nodes = 2;
  mc.gpus_per_node = 4;
  mc.topology.kind = hw::TopologySpec::Kind::kMultiRail;
  mc.topology.nic_rails = 2;
  return mc;
}

std::vector<Arrival> chaos_trace(std::uint64_t seed, int n = 80,
                                 double rps = 4e4) {
  const auto weights = class_weights(default_catalog(8));
  return poisson_trace(rps, n, seed, weights);
}

ServeConfig resilient_config() {
  ServeConfig cfg;
  cfg.timeout.slo_factor = 3.0;
  cfg.timeout.max_retries = 1;
  cfg.brownout.enabled = true;
  return cfg;
}

/// Fresh machine + world + simulator with `plan` scheduled as engine
/// events; nullptr plan = the pre-fault code path (no scheduling call).
ServeReport run_chaos(const std::vector<Arrival>& trace,
                      const hw::FaultPlan* plan, const ServeConfig& cfg) {
  gpu::Machine machine(two_node_dual_rail());
  shmem::World world(machine);
  if (plan != nullptr) {
    hw::schedule_fault_plan(machine.engine(), machine.topology(), *plan, 0);
  }
  Simulator sim(machine, world, default_catalog(machine.num_pes()), cfg);
  return sim.run(trace);
}

/// Seeded chaos: the plan is drawn from the machine's own topology, so the
/// whole run is a function of (trace, chaos_seed, cfg).
ServeReport run_seeded_chaos(const std::vector<Arrival>& trace,
                             std::uint64_t chaos_seed,
                             const ServeConfig& cfg) {
  gpu::Machine machine(two_node_dual_rail());
  shmem::World world(machine);
  hw::ChaosSpec spec;
  spec.num_events = 6;
  spec.horizon_ns = 1'500'000;
  const hw::FaultPlan plan =
      hw::make_chaos_plan(machine.topology(), chaos_seed, spec);
  hw::schedule_fault_plan(machine.engine(), machine.topology(), plan, 0);
  Simulator sim(machine, world, default_catalog(machine.num_pes()), cfg);
  return sim.run(trace);
}

TEST(ServeChaos, RerunsAreByteIdentical) {
  const auto trace = chaos_trace(21);
  const ServeConfig cfg = resilient_config();
  const ServeReport r1 = run_seeded_chaos(trace, 77, cfg);
  const ServeReport r2 = run_seeded_chaos(trace, 77, cfg);
  EXPECT_EQ(r1.records, r2.records);
  EXPECT_EQ(r1.per_class, r2.per_class);
  EXPECT_EQ(r1.overall, r2.overall);
  EXPECT_EQ(r1.last_end, r2.last_end);
}

TEST(ServeChaos, NoEventPlanMatchesHealthyRunExactly) {
  // An empty FaultPlan and identity events (derate 1.0, jitter 0, a derate
  // that is repaired before t=0 traffic... i.e. never observed) must leave
  // the healthy fast path bit-for-bit untouched.
  const auto trace = chaos_trace(23);
  ServeConfig cfg;  // defaults: timeouts and brownout off
  const ServeReport healthy = run_chaos(trace, nullptr, cfg);

  const hw::FaultPlan empty = hw::FaultPlan::none();
  const ServeReport with_empty = run_chaos(trace, &empty, cfg);
  EXPECT_EQ(healthy.records, with_empty.records);
  EXPECT_EQ(healthy.per_class, with_empty.per_class);
  EXPECT_EQ(healthy.overall, with_empty.overall);

  gpu::Machine probe(two_node_dual_rail());
  hw::Topology& topo = probe.topology();
  hw::FaultPlan identity;
  hw::FaultEvent ev;
  ev.t = 0;
  ev.kind = hw::FaultKind::kDerate;
  ev.site = topo.fault_site_index("node0.rail0.wire");
  ev.derate = 1.0;
  identity.events.push_back(ev);
  ev.kind = hw::FaultKind::kJitter;
  ev.site = topo.fault_site_index("node1.rail1.wire");
  ev.jitter_ns = 0;
  identity.events.push_back(ev);
  const ServeReport with_identity = run_chaos(trace, &identity, cfg);
  EXPECT_EQ(healthy.records, with_identity.records);
  EXPECT_EQ(healthy.overall, with_identity.overall);
}

TEST(ServeChaos, CountersAreExactUnderFaults) {
  const auto trace = chaos_trace(29, /*n=*/100);
  const ServeReport r = run_seeded_chaos(trace, 91, resilient_config());
  ASSERT_EQ(r.records.size(), trace.size());

  std::int64_t retries = 0, timeouts = 0, shed = 0, rejected = 0,
               completed = 0;
  for (const RequestRecord& rec : r.records) {
    if (rec.attempts > 1) retries += rec.attempts - 1;
    if (rec.shed) {
      ++shed;
      EXPECT_EQ(rec.start, -1);
      EXPECT_EQ(rec.attempts, 0);
    } else if (rec.rejected) {
      ++rejected;
    } else if (rec.timed_out) {
      ++timeouts;
    } else {
      ++completed;
    }
  }
  EXPECT_EQ(r.overall.retries, retries);
  EXPECT_EQ(r.overall.timeouts, timeouts);
  EXPECT_EQ(r.overall.shed, shed);
  EXPECT_EQ(r.overall.rejected, rejected);
  EXPECT_EQ(r.overall.completed, completed);
  EXPECT_EQ(completed + rejected + timeouts + shed,
            static_cast<std::int64_t>(trace.size()));

  // Per-class counters sum to the overall ones.
  std::int64_t cls_completed = 0, cls_retries = 0;
  for (const ClassStats& cs : r.per_class) {
    cls_completed += cs.completed;
    cls_retries += cs.retries;
  }
  EXPECT_EQ(cls_completed, r.overall.completed);
  EXPECT_EQ(cls_retries, r.overall.retries);
}

TEST(ServeChaos, SweepThreadCountDoesNotChangeChaosRecords) {
  const ServeConfig cfg = resilient_config();
  auto point = [&cfg](int i) {
    const auto trace =
        chaos_trace(3000 + static_cast<std::uint64_t>(i), /*n=*/50);
    return run_seeded_chaos(trace, 500 + static_cast<std::uint64_t>(i), cfg)
        .records;
  };

  setenv("FCC_SWEEP_THREADS", "1", 1);
  const auto serial =
      fccbench::run_sweep<std::vector<RequestRecord>>(4, point);
  setenv("FCC_SWEEP_THREADS", "4", 1);
  const auto parallel =
      fccbench::run_sweep<std::vector<RequestRecord>>(4, point);
  unsetenv("FCC_SWEEP_THREADS");

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "sweep point " << i;
  }
}

TEST(ServeChaos, ImpossibleDeadlineExhaustsRetryBudget) {
  const auto trace = chaos_trace(31, /*n=*/24);
  ServeConfig cfg;
  cfg.timeout.slo_factor = 1e-6;  // deadline ~= arrival: nothing can make it
  cfg.timeout.max_retries = 2;
  const ServeReport r = run_chaos(trace, nullptr, cfg);
  EXPECT_EQ(r.overall.completed, 0);
  EXPECT_GT(r.overall.timeouts, 0);
  for (const RequestRecord& rec : r.records) {
    if (rec.rejected) continue;
    EXPECT_TRUE(rec.timed_out);
    EXPECT_EQ(rec.attempts, 1 + cfg.timeout.max_retries);
  }
  EXPECT_EQ(r.overall.retries,
            (r.overall.timeouts) * cfg.timeout.max_retries);
}

TEST(ServeChaos, GenerousDeadlineNeverTimesOutOnHealthyFabric) {
  const auto trace = chaos_trace(37, /*n=*/40);
  ServeConfig cfg;
  cfg.timeout.slo_factor = 1e6;
  const ServeReport r = run_chaos(trace, nullptr, cfg);
  EXPECT_EQ(r.overall.timeouts, 0);
  EXPECT_EQ(r.overall.retries, 0);
  for (const RequestRecord& rec : r.records) {
    EXPECT_FALSE(rec.timed_out);
    if (!rec.rejected) {
      EXPECT_EQ(rec.attempts, 1);
    }
  }
}

TEST(ServeChaos, BrownoutShedsUnderDerateAndRecovers) {
  // Calibrate healthy, crush both rail wires mid-trace, repair later. The
  // service-time EMA must drift past the brownout threshold (shedding new
  // arrivals) and the run must still complete deterministically.
  const auto trace = chaos_trace(41, /*n=*/160, /*rps=*/3e4);
  ServeConfig cfg;
  cfg.timeout.slo_factor = 0.0;  // isolate the brownout machinery
  cfg.brownout.enabled = true;
  cfg.brownout.drift_factor = 1.5;
  cfg.brownout.baseline_batches = 2;

  gpu::Machine probe(two_node_dual_rail());
  hw::Topology& ptopo = probe.topology();
  hw::FaultPlan plan;
  for (const char* site : {"node0.rail0.wire", "node0.rail1.wire",
                           "node1.rail0.wire", "node1.rail1.wire"}) {
    hw::FaultEvent ev;
    ev.t = 600'000;
    ev.kind = hw::FaultKind::kDerate;
    ev.site = ptopo.fault_site_index(site);
    ev.derate = 0.02;
    ASSERT_GE(ev.site, 0) << site;
    plan.events.push_back(ev);
    ev.t = 3'500'000;
    ev.kind = hw::FaultKind::kRepair;
    plan.events.push_back(ev);
  }
  std::sort(plan.events.begin(), plan.events.end(),
            [](const hw::FaultEvent& a, const hw::FaultEvent& b) {
              return a.t < b.t;
            });

  const ServeReport r1 = run_chaos(trace, &plan, cfg);
  EXPECT_GT(r1.overall.shed, 0);
  EXPECT_GT(r1.overall.completed, 0);
  // Shedding is admission-side: shed requests never occupy a lane.
  for (const RequestRecord& rec : r1.records) {
    if (rec.shed) {
      EXPECT_EQ(rec.batch_size, 0);
    }
  }
  const ServeReport r2 = run_chaos(trace, &plan, cfg);
  EXPECT_EQ(r1.records, r2.records);
  EXPECT_EQ(r1.overall, r2.overall);
}

TEST(ServeChaos, ZeroCapacityQueueRejectsEveryRequest) {
  const auto trace = chaos_trace(43, /*n=*/30);
  ServeConfig cfg;
  cfg.policy.queue_capacity = 0;
  const ServeReport r = run_chaos(trace, nullptr, cfg);
  EXPECT_EQ(r.overall.completed, 0);
  EXPECT_EQ(r.overall.rejected, static_cast<std::int64_t>(trace.size()));
  for (const RequestRecord& rec : r.records) {
    EXPECT_TRUE(rec.rejected);
    EXPECT_EQ(rec.start, -1);
  }
}

/// Constructing a simulator over `cfg` must throw a std::logic_error whose
/// message (after the failed expression) contains every string of `want`.
void expect_rejected(const ServeConfig& cfg,
                     const std::vector<std::string>& want) {
  gpu::Machine machine(two_node_dual_rail());
  shmem::World world(machine);
  try {
    Simulator sim(machine, world, default_catalog(machine.num_pes()), cfg);
    ADD_FAILURE() << "accepted a config that should name " << want.front();
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    const std::string msg = what.substr(what.find(" — ") + 1);
    for (const std::string& w : want) {
      EXPECT_NE(msg.find(w), std::string::npos) << what;
    }
  }
  EXPECT_EQ(machine.sharded().live_tasks(), 0);
}

TEST(ServeChaos, BadConfigFailsAtConstructionNamingTheField) {
  // Unchecked, each of these would fail mid-run (a negative backoff, an
  // overflowing one, a zero-size batch), leaving tasks suspended, or
  // silently never shed (a zero-batch baseline).
  ServeConfig cfg;
  cfg.timeout.slo_factor = 1e-6;
  cfg.timeout.max_retries = 2;
  cfg.timeout.backoff_ns = -1;
  expect_rejected(cfg, {"timeout.backoff_ns", "got -1"});
  cfg = ServeConfig{};
  cfg.timeout.max_retries = -1;
  expect_rejected(cfg, {"timeout.max_retries", "got -1"});
  cfg = ServeConfig{};
  cfg.timeout.max_retries = 50;  // 20 us << 50 overflows TimeNs
  expect_rejected(cfg, {"timeout.backoff_ns", "timeout.max_retries = 50",
                        "got 20000"});
  cfg.timeout.max_retries = 63;
  expect_rejected(cfg, {"timeout.max_retries", "got 63"});
  cfg = ServeConfig{};
  cfg.brownout.enabled = true;
  cfg.brownout.baseline_batches = 0;
  expect_rejected(cfg, {"brownout.baseline_batches", "got 0"});
  cfg = ServeConfig{};
  cfg.brownout.ema_alpha = 1.5;
  expect_rejected(cfg, {"brownout.ema_alpha", "got 1.5"});
  cfg.brownout.ema_alpha = 0.0;
  expect_rejected(cfg, {"brownout.ema_alpha", "got 0"});
  cfg = ServeConfig{};
  cfg.brownout.drift_factor = 0.0;
  expect_rejected(cfg, {"brownout.drift_factor", "got 0"});
  cfg = ServeConfig{};
  cfg.policy.max_batch = 0;
  expect_rejected(cfg, {"max_batch", "got 0"});
  cfg = ServeConfig{};
  cfg.policy.window_ns = -5;
  expect_rejected(cfg, {"window_ns", "got -5"});
  cfg = ServeConfig{};
  cfg.lanes = 0;
  expect_rejected(cfg, {"lanes", "got 0"});
}

}  // namespace
}  // namespace fcc::serve
