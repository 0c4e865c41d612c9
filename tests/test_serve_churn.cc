// Churn stress tests: thousands of back-to-back FusedOp::spawn() cycles on
// ONE engine, asserting the runtime leaks nothing run-over-run — no flag
// slots, no dangling threshold waiters, no unbounded slab growth — and that
// a warm operator reproduces a fresh engine's timing exactly.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "framework/op_registry.h"
#include "fused/op_runtime.h"
#include "gpu/machine.h"
#include "serve/arrivals.h"
#include "serve/catalog.h"
#include "serve/simulator.h"
#include "shmem/world.h"

namespace fcc {
namespace {

/// Every registered operator that ships a smoke spec (all four built-ins).
std::vector<std::string> smoke_ops() {
  const fw::OpRegistry& reg = fw::OpRegistry::global();
  std::vector<std::string> ops;
  for (const std::string& name : reg.names()) {
    if (reg.at(name).smoke_spec != nullptr) ops.push_back(name);
  }
  return ops;
}

TEST(ServeChurn, RegistryCoversAllFourOperators) {
  const auto ops = smoke_ops();
  ASSERT_GE(ops.size(), 4u);
}

TEST(ServeChurn, SerialRespawnIsLeakFreeAndStable) {
  constexpr int kIters = 300;
  gpu::Machine machine(fw::smoke_machine_config());
  shmem::World world(machine);
  sim::Engine& engine = machine.engine();
  const fw::OpRegistry& reg = fw::OpRegistry::global();

  for (const std::string& name : smoke_ops()) {
    SCOPED_TRACE(name);
    const fw::OpEntry& entry = reg.at(name);
    const fw::OpSpec spec = entry.smoke_spec();

    // Reference duration from a pristine engine.
    TimeNs reference;
    {
      gpu::Machine fresh_machine(fw::smoke_machine_config());
      shmem::World fresh_world(fresh_machine);
      auto fresh_op =
          entry.make(fresh_world, spec, fw::Backend::kFused);
      const auto res = fresh_op->run_to_completion();
      reference = res.end - res.start;
    }

    auto op = entry.make(world, spec, fw::Backend::kFused);
    std::size_t slab_watermark = 0;
    for (int i = 0; i < kIters; ++i) {
      const auto res = op->run_to_completion();
      ASSERT_EQ(res.end - res.start, reference)
          << "iteration " << i << " drifted from the fresh-engine run";
      ASSERT_EQ(engine.live_tasks(), 0) << "iteration " << i;
      ASSERT_EQ(engine.pending(), 0u) << "iteration " << i;
      // The event slab and flag arrays must stop growing once warm: take
      // the watermark after two iterations (first-run allocations), then
      // hold it for the remaining hundreds.
      if (i == 1) {
        // Flag PUTs deliver as compact events, so the warm slab holds at
        // most the per-PE spawn callbacks.
        slab_watermark = engine.slab_nodes();
        ASSERT_LE(slab_watermark, static_cast<std::size_t>(world.n_pes()));
      }
      if (i > 1) {
        ASSERT_EQ(engine.slab_nodes(), slab_watermark)
            << "slab grew at iteration " << i;
      }
    }
    for (int pe = 0; pe < world.n_pes(); ++pe) {
      ASSERT_TRUE(world.quiesced(pe)) << "pe " << pe;
    }
  }
}

TEST(ServeChurn, ConcurrentSpawnChurnAcrossAllOperators) {
  constexpr int kIters = 200;
  gpu::Machine machine(fw::smoke_machine_config());
  shmem::World world(machine);
  sim::Engine& engine = machine.engine();
  const fw::OpRegistry& reg = fw::OpRegistry::global();

  std::vector<std::unique_ptr<fused::FusedOp>> ops;
  for (const std::string& name : smoke_ops()) {
    const fw::OpEntry& entry = reg.at(name);
    ops.push_back(entry.make(world, entry.smoke_spec(), fw::Backend::kFused));
  }

  std::vector<TimeNs> reference;
  std::size_t slab_watermark = 0;
  for (int i = 0; i < kIters; ++i) {
    // All four operators in flight on the machine at once, every cycle.
    for (auto& op : ops) op->spawn();
    engine.run();
    ASSERT_EQ(engine.live_tasks(), 0) << "iteration " << i;

    std::vector<TimeNs> durations;
    for (auto& op : ops) {
      const auto& res = op->result();
      durations.push_back(res.end - res.start);
    }
    if (i == 0) {
      reference = durations;
    } else {
      ASSERT_EQ(durations, reference) << "iteration " << i;
    }
    if (i == 1) {
      // One spawn callback per PE per operator in flight; flag PUTs take
      // no node.
      slab_watermark = engine.slab_nodes();
      ASSERT_LE(slab_watermark,
                ops.size() * static_cast<std::size_t>(world.n_pes()));
    }
    if (i > 1) {
      ASSERT_EQ(engine.slab_nodes(), slab_watermark);
    }
  }
}

TEST(ServeChurn, WarmSimulatorRepeatsAreStableAndLeakFree) {
  gpu::Machine machine(fw::smoke_machine_config());
  shmem::World world(machine);
  sim::Engine& engine = machine.engine();
  auto catalog = serve::default_catalog(machine.num_pes());
  const auto weights = serve::class_weights(catalog);
  serve::Simulator sim(machine, world, std::move(catalog));
  const auto trace = serve::poisson_trace(4e4, 150, 99, weights);

  // 3 runs x 150 requests x multi-op chains on one warm simulator: every
  // operator instance respawns hundreds of times.
  serve::ServeReport first = sim.run(trace);
  const std::size_t slab_watermark = engine.slab_nodes();
  for (int rep = 0; rep < 2; ++rep) {
    const serve::ServeReport again = sim.run(trace);
    ASSERT_EQ(again.records, first.records) << "repeat " << rep;
    ASSERT_EQ(again.overall, first.overall) << "repeat " << rep;
    ASSERT_EQ(engine.live_tasks(), 0);
    ASSERT_EQ(engine.slab_nodes(), slab_watermark)
        << "slab grew on repeat " << rep;
  }
  for (int pe = 0; pe < world.n_pes(); ++pe) {
    ASSERT_TRUE(world.quiesced(pe)) << "pe " << pe;
  }
}

}  // namespace
}  // namespace fcc
