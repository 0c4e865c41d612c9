// Determinism of the serving layer: (seed, trace) fully determines every
// per-request latency record — across fresh simulators, across repeated
// runs on one warm simulator (run-relative time base), and across
// FCC_SWEEP_THREADS settings when points run under the sweep runner.
#include <gtest/gtest.h>

#include <cstdlib>
#include <utility>
#include <vector>

#include "gpu/machine.h"
#include "plan/plan_cache.h"
#include "serve/arrivals.h"
#include "serve/catalog.h"
#include "serve/simulator.h"
#include "shmem/world.h"
#include "sweep_runner.h"

namespace fcc::serve {
namespace {

gpu::Machine::Config one_node_four_gpus() {
  gpu::Machine::Config mc;
  mc.num_nodes = 1;
  mc.gpus_per_node = 4;
  return mc;
}

std::vector<Arrival> smoke_trace(std::uint64_t seed, int n = 80,
                                 double rps = 4e4) {
  const auto weights = class_weights(default_catalog(4));
  return poisson_trace(rps, n, seed, weights);
}

/// Fresh machine + world + simulator, one run.
ServeReport run_fresh(const std::vector<Arrival>& trace) {
  gpu::Machine machine(one_node_four_gpus());
  shmem::World world(machine);
  Simulator sim(machine, world, default_catalog(machine.num_pes()));
  return sim.run(trace);
}

TEST(ServeDeterminism, PoissonTraceIsSeedDeterministic) {
  const auto weights = class_weights(default_catalog(4));
  const auto a = poisson_trace(5e4, 200, 42, weights);
  const auto b = poisson_trace(5e4, 200, 42, weights);
  EXPECT_EQ(a, b);
  const auto c = poisson_trace(5e4, 200, 43, weights);
  EXPECT_NE(a, c);
}

TEST(ServeDeterminism, FreshRunsAreByteIdentical) {
  const auto trace = smoke_trace(7);
  const ServeReport r1 = run_fresh(trace);
  const ServeReport r2 = run_fresh(trace);
  EXPECT_EQ(r1.records, r2.records);
  EXPECT_EQ(r1.per_class, r2.per_class);
  EXPECT_EQ(r1.overall, r2.overall);
  EXPECT_EQ(r1.last_end, r2.last_end);
}

TEST(ServeDeterminism, WarmSimulatorMatchesColdRun) {
  // Run-relative timestamps: a warm simulator (engine clock, link free
  // times, op allocations all advanced) must reproduce the cold run's
  // records exactly.
  const auto trace = smoke_trace(11);
  const ServeReport cold = run_fresh(trace);

  gpu::Machine machine(one_node_four_gpus());
  shmem::World world(machine);
  Simulator sim(machine, world, default_catalog(machine.num_pes()));
  const ServeReport warm1 = sim.run(trace);
  const ServeReport warm2 = sim.run(trace);
  EXPECT_EQ(warm1.records, cold.records);
  EXPECT_EQ(warm2.records, cold.records);
  EXPECT_EQ(warm2.overall, cold.overall);
}

TEST(ServeDeterminism, TimelineInvariantsHold) {
  const auto trace = smoke_trace(13, /*n=*/120);
  const ServeReport report = run_fresh(trace);
  ASSERT_EQ(report.records.size(), trace.size());
  EXPECT_EQ(report.overall.completed + report.overall.rejected,
            static_cast<std::int64_t>(trace.size()));
  ServeConfig defaults;
  for (const RequestRecord& r : report.records) {
    EXPECT_EQ(r.arrival, trace[static_cast<std::size_t>(r.id)].t);
    if (r.rejected) continue;
    EXPECT_LE(r.arrival, r.start);
    EXPECT_LE(r.start, r.end);
    EXPECT_GE(r.batch_size, 1);
    EXPECT_LE(r.batch_size, defaults.policy.max_batch);
  }
}

TEST(ServeDeterminism, SweepThreadCountDoesNotChangeRecords) {
  // Each sweep point builds its own machine, so points are independent —
  // the parallel sweep runner must return index-ordered, byte-identical
  // results no matter how many host threads execute it.
  auto point = [](int i) {
    const auto trace =
        smoke_trace(1000 + static_cast<std::uint64_t>(i), /*n=*/60,
                    /*rps=*/3e4 * (i + 1));
    return run_fresh(trace).records;
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

TEST(ServeDeterminism, PlannerEnabledRunsAreByteIdentical) {
  // Routing every class chain through the planning pipeline must not
  // perturb determinism: planning is pure host work, so two fresh
  // planner-enabled simulators produce byte-identical records.
  const auto trace = smoke_trace(19);
  auto run_planned = [&] {
    gpu::Machine machine(one_node_four_gpus());
    shmem::World world(machine);
    ServeConfig cfg;
    cfg.planner = true;
    Simulator sim(machine, world, default_catalog(machine.num_pes()), cfg);
    return sim.run(trace);
  };
  const ServeReport a = run_planned();
  const ServeReport b = run_planned();
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.per_class, b.per_class);
  EXPECT_GT(a.plan.chains_planned, 0);
  // Counters (minus host wall-clock) are part of the determinism surface.
  EXPECT_EQ(a.plan.fused_stages, b.plan.fused_stages);
  EXPECT_EQ(a.plan.baseline_stages, b.plan.baseline_stages);
  EXPECT_EQ(a.plan.algo_overrides, b.plan.algo_overrides);
}

TEST(ServeDeterminism, WarmPlanCacheReplaysColdDecisions) {
  // Two simulators sharing one PlanCache: the second's chains hit the
  // cache (zero passes re-run) and its simulated records match the cold
  // planner's byte for byte — a warm plan replay changes nothing.
  const auto trace = smoke_trace(23);
  plan::PlanCache cache(32);
  auto run_shared = [&] {
    gpu::Machine machine(one_node_four_gpus());
    shmem::World world(machine);
    ServeConfig cfg;
    cfg.planner = true;
    cfg.plan_cache = &cache;
    Simulator sim(machine, world, default_catalog(machine.num_pes()), cfg);
    ServeReport report = sim.run(trace);
    return std::make_pair(std::move(report), sim.plan_reports());
  };

  const auto [cold, cold_reports] = run_shared();
  EXPECT_EQ(cold.plan.cache_hits, 0);
  EXPECT_GT(cold.plan.cache_misses, 0);
  EXPECT_GT(cold.plan.passes_run, 0);

  const auto [warm, warm_reports] = run_shared();
  EXPECT_EQ(warm.plan.cache_hits, cold.plan.cache_misses);
  EXPECT_EQ(warm.plan.cache_misses, 0);
  EXPECT_EQ(warm.plan.passes_run, 0);
  ASSERT_EQ(warm_reports.size(), cold_reports.size());
  for (std::size_t c = 0; c < warm_reports.size(); ++c) {
    EXPECT_TRUE(warm_reports[c].cache_hit) << "class " << c;
    EXPECT_TRUE(warm_reports[c].passes.empty()) << "class " << c;
    EXPECT_EQ(warm_reports[c].graph_key, cold_reports[c].graph_key);
  }
  EXPECT_EQ(warm.records, cold.records);
  EXPECT_EQ(warm.per_class, cold.per_class);
}

TEST(ServeDeterminism, SweepThreadsDoNotChangePlannedRecords) {
  // The planner-enabled variant of the sweep-thread invariant: each point
  // plans with its own cache, so host-thread interleaving can't leak into
  // the planned decisions or the records.
  auto point = [](int i) {
    const auto trace =
        smoke_trace(2000 + static_cast<std::uint64_t>(i), /*n=*/60,
                    /*rps=*/3e4 * (i + 1));
    gpu::Machine machine(one_node_four_gpus());
    shmem::World world(machine);
    plan::PlanCache cache(16);  // per-point: PlanCache is not thread-safe
    ServeConfig cfg;
    cfg.planner = true;
    cfg.plan_cache = &cache;
    Simulator sim(machine, world, default_catalog(machine.num_pes()), cfg);
    return sim.run(trace).records;
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

TEST(ServeDeterminism, BaselineBackendAlsoDeterministic) {
  const auto trace = smoke_trace(17, /*n=*/40);
  auto run_baseline = [&] {
    gpu::Machine machine(one_node_four_gpus());
    shmem::World world(machine);
    ServeConfig cfg;
    cfg.backend = fw::Backend::kBaseline;
    Simulator sim(machine, world, default_catalog(machine.num_pes()), cfg);
    return sim.run(trace);
  };
  const ServeReport a = run_baseline();
  const ServeReport b = run_baseline();
  EXPECT_EQ(a.records, b.records);
}

}  // namespace
}  // namespace fcc::serve
