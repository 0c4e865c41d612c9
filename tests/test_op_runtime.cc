// Shared fused-operator runtime: OccupancyPlan resolution, FlagSet
// lifecycle + signalling, the FusedOp spawn/drain driver, and
// OperatorResult::skew() edge cases.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "fused/op_runtime.h"
#include "gpu/machine.h"
#include "gpu/persistent.h"

namespace fcc::fused {
namespace {

hw::GpuSpec spec_with(int num_cus, int max_wgs_per_cu, int vgprs_per_cu) {
  hw::GpuSpec s;
  s.num_cus = num_cus;
  s.max_wgs_per_cu = max_wgs_per_cu;
  s.vgprs_per_cu = vgprs_per_cu;
  return s;
}

// ---------------------------------------------------------------------------
// OccupancyPlan
// ---------------------------------------------------------------------------

TEST(OccupancyPlan, DerivesFromKernelResources) {
  // 262144 VGPRs / (128 * 256) = 8 WGs/CU; hardware limit also 8.
  const auto spec = spec_with(104, 8, 262144);
  gpu::KernelResources r;
  r.threads_per_wg = 256;
  r.vgprs_per_thread = 128;
  EXPECT_EQ(OccupancyPlan::resolve(spec, r).slots, 104 * 8);
}

TEST(OccupancyPlan, ShmemContextLowersOccupancy) {
  // 262144 / (144 * 256) = 7 WGs/CU — the paper's 12.5% occupancy loss.
  const auto spec = spec_with(104, 8, 262144);
  gpu::KernelResources r;
  r.threads_per_wg = 256;
  r.vgprs_per_thread = 128 + gpu::kShmemCtxVgprsPerThread;
  EXPECT_EQ(OccupancyPlan::resolve(spec, r).slots, 104 * 7);
}

TEST(OccupancyPlan, OverrideWinsOverDerivation) {
  const auto spec = spec_with(104, 8, 262144);
  gpu::KernelResources r;
  EXPECT_EQ(OccupancyPlan::resolve(spec, r, {.override_slots = 13}).slots, 13);
}

TEST(OccupancyPlan, KneeCapsDerivedSlots) {
  // Occupancy limit 832, knee at 75% of 832 = 624.
  const auto spec = spec_with(104, 8, 262144);
  gpu::KernelResources r;
  EXPECT_EQ(OccupancyPlan::resolve(spec, r, {.knee_frac = 0.75}).slots, 624);
  // Override skips the knee (the Fig. 13 ablation sweeps past it).
  EXPECT_EQ(OccupancyPlan::resolve(spec, r,
                                   {.override_slots = 800, .knee_frac = 0.75})
                .slots,
            800);
}

TEST(OccupancyPlan, TaskCountCapsEverything) {
  const auto spec = spec_with(104, 8, 262144);
  gpu::KernelResources r;
  EXPECT_EQ(OccupancyPlan::resolve(spec, r, {.max_tasks = 5}).slots, 5);
  EXPECT_EQ(
      OccupancyPlan::resolve(spec, r, {.override_slots = 64, .max_tasks = 5})
          .slots,
      5);
}

// ---------------------------------------------------------------------------
// FlagSet
// ---------------------------------------------------------------------------

TEST(FlagSet, LifecycleAndLocalSet) {
  gpu::Machine::Config cfg;
  cfg.num_nodes = 1;
  cfg.gpus_per_node = 2;
  gpu::Machine machine(cfg);
  shmem::World world(machine);
  FlagSet flags;
  EXPECT_FALSE(static_cast<bool>(flags));
  flags.reset(world, 4);
  ASSERT_TRUE(static_cast<bool>(flags));
  EXPECT_EQ(flags->num_pes(), 2);
  EXPECT_EQ(flags->size(), 4u);
  flags->set(1, 3, 7);
  EXPECT_EQ(flags->read(1, 3), 7u);
  flags.reset(world, 4);  // rebuild drops prior values
  EXPECT_EQ(flags->read(1, 3), 0u);
}

TEST(FlagSet, SignalDeliversRemoteFlagStores) {
  gpu::Machine::Config cfg;
  cfg.num_nodes = 1;
  cfg.gpus_per_node = 4;
  gpu::Machine machine(cfg);
  shmem::World world(machine);
  auto& engine = machine.engine();

  FlagSet flags;
  flags.reset(world, 2);
  struct Driver {
    static sim::Task go(sim::Engine&, shmem::World& world, FlagSet& flags) {
      co_await sim::delay(world.machine().engine_of(0),
                          shmem::World::kFenceCostNs);
      for (PeId peer = 1; peer < 4; ++peer) {
        co_await world.issue(/*src=*/0, peer,
                             shmem::World::IssueKind::kStore);
        flags.signal(world, /*src=*/0, peer, /*idx=*/1);
      }
    }
  };
  Driver::go(engine, world, flags);
  engine.run();
  ASSERT_EQ(engine.live_tasks(), 0);
  EXPECT_EQ(flags->read(0, 1), 0u);
  for (PeId peer = 1; peer < 4; ++peer) {
    EXPECT_EQ(flags->read(peer, 1), 1u) << "peer " << peer;
  }
}

TEST(FlagSet, SignalRejectsAnUnsetArrayOrAnOutOfRangeFlag) {
  gpu::Machine::Config cfg;
  cfg.num_nodes = 1;
  cfg.gpus_per_node = 2;
  gpu::Machine machine(cfg);
  shmem::World world(machine);
  FlagSet flags;
  EXPECT_THROW(flags.signal(world, 0, 1, 0), std::logic_error);
  flags.reset(world, 2);
  try {
    flags.signal(world, 0, 1, 2);
    FAIL() << "flag 2 of 2 accepted";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("flag 2 of 2"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(world.puts_issued(), 0);
}

// ---------------------------------------------------------------------------
// FusedOp driver
// ---------------------------------------------------------------------------

class DelayOp final : public FusedOp {
 public:
  DelayOp(shmem::World& world, TimeNs cost) : FusedOp(world), cost_(cost) {}
  const char* name() const override { return "delay_op"; }
  sim::Co run() override {
    begin_run(world_.n_pes());
    co_await sim::delay(engine(), cost_);
    finish_run_uniform();
  }

 private:
  TimeNs cost_;
};

TEST(FusedOpDriver, RunToCompletionDrivesAndFillsResult) {
  gpu::Machine::Config cfg;
  cfg.num_nodes = 1;
  cfg.gpus_per_node = 2;
  gpu::Machine machine(cfg);
  shmem::World world(machine);

  DelayOp op(world, 1234);
  const auto res = op.run_to_completion();
  EXPECT_EQ(res.duration(), 1234);
  EXPECT_EQ(res.pe_end.size(), 2u);
  EXPECT_EQ(res.pe_end[0], res.end);
  EXPECT_EQ(op.result().end, res.end);

  // Re-running continues from the engine's current time.
  const auto res2 = op.run_to_completion();
  EXPECT_EQ(res2.start, res.end);
  EXPECT_EQ(res2.duration(), 1234);
}

TEST(FusedOpDriver, SpawnReturnsAwaitableCompletionPerOp) {
  gpu::Machine::Config cfg;
  cfg.num_nodes = 1;
  cfg.gpus_per_node = 2;
  gpu::Machine machine(cfg);
  shmem::World world(machine);

  // Two ops in flight on one engine: the executor pattern. Each spawn
  // returns its own completion event; one drain finishes both.
  DelayOp fast(world, 100);
  DelayOp slow(world, 900);
  auto& fast_done = fast.spawn();
  auto& slow_done = slow.spawn();
  EXPECT_FALSE(fast_done.is_set());
  EXPECT_FALSE(slow_done.is_set());

  machine.engine().run();
  EXPECT_TRUE(fast_done.is_set());
  EXPECT_TRUE(slow_done.is_set());
  EXPECT_EQ(machine.engine().live_tasks(), 0);
  // Both started at t=0 — they genuinely overlapped.
  EXPECT_EQ(fast.result().start, 0);
  EXPECT_EQ(slow.result().start, 0);
  EXPECT_EQ(fast.result().end, 100);
  EXPECT_EQ(slow.result().end, 900);
}

TEST(FusedOpDriver, SpawnWhileInFlightThrows) {
  gpu::Machine::Config cfg;
  cfg.num_nodes = 1;
  cfg.gpus_per_node = 2;
  gpu::Machine machine(cfg);
  shmem::World world(machine);

  DelayOp op(world, 100);
  op.spawn();
  EXPECT_THROW(op.spawn(), std::logic_error);
  machine.engine().run();
  // Completed: spawning again is legal.
  auto& again = op.spawn();
  machine.engine().run();
  EXPECT_TRUE(again.is_set());
  EXPECT_EQ(op.result().start, 100);
}

// ---------------------------------------------------------------------------
// OperatorResult::skew
// ---------------------------------------------------------------------------

TEST(OperatorResult, SkewIsZeroOnDegenerateSpans) {
  OperatorResult r;
  EXPECT_DOUBLE_EQ(r.skew(), 0.0);  // empty pe_end, zero duration

  r.start = 100;
  r.end = 100;  // zero duration with non-empty pe_end
  r.pe_end = {100, 100};
  EXPECT_DOUBLE_EQ(r.skew(), 0.0);

  r.end = 200;
  r.pe_end = {50, 90};  // all completions at/before start
  EXPECT_DOUBLE_EQ(r.skew(), 0.0);
}

TEST(OperatorResult, SkewMeasuresRelativeSpread) {
  OperatorResult r;
  r.start = 0;
  r.end = 100;
  r.pe_end = {60, 100};
  EXPECT_DOUBLE_EQ(r.skew(), 0.4);
}

// ---------------------------------------------------------------------------
// Deadlock diagnostics
// ---------------------------------------------------------------------------

/// PE 0 waits on a flag nobody sets; PE 1 completes. The deadlock check
/// must name the stuck PE and the unsatisfied wait, also when the wait is
/// a persistent-kernel slot's chain poll (`in_kernel`): the slot is a
/// record, not a task, and the per-PE task awaiting the kernel is what
/// stays live.
class StuckOp final : public FusedOp {
 public:
  StuckOp(shmem::World& world, bool in_kernel)
      : FusedOp(world), in_kernel_(in_kernel) {
    register_debug_flags("gate", gate_);
  }
  const char* name() const override { return "stuck_op"; }
  sim::Co run() override {
    const int pes = world_.n_pes();
    gate_.reset(world_, 2);
    begin_run(pes);
    co_await run_per_pe_at(engine().now(), pes,
                           [this](PeId pe) { return pe_body(pe); });
    finish_run_uniform();
  }
  void unstick() { gate_->set(0, 1, 3); }

 private:
  sim::Co pe_body(PeId pe) {
    if (!in_kernel_) {
      if (pe == 0) co_await gate_->wait_ge(0, 1, 3);
      co_return;
    }
    Kernel kernel(*this, pe);
    kernel.start(&claim);
    co_await kernel.wait();
  }
  /// A 2-slot kernel of 4 empty WGs whose slot 1 on PE 0 polls the gate
  /// once the queue drains.
  struct Kernel : gpu::KernelRun {
    Kernel(StuckOp& op, PeId pe)
        : KernelRun(op.world_.machine().device(pe),
                    {.num_slots = 2, .num_wgs = 4}),
          op(op) {}
    StuckOp& op;
  };
  struct Slot : gpu::KernelRun::Slot {
    int flag;  // the poll's position
  };
  static void claim(Slot& s) {
    Kernel& k = static_cast<Kernel&>(*s.run);
    while (k.next(s) >= 0) {
    }
    s.flag = 1;
    poll(&s);
  }
  static void poll(sim::Call* c) {
    Slot& s = static_cast<Slot&>(*c);
    Kernel& k = static_cast<Kernel&>(*s.run);
    if (k.pe() != 0 || s.index != 1 ||
        !k.op.gate_->poll_then(0, s.flag, 1, 2, three, s, &poll)) {
      k.finish(s);
    }
  }
  static std::uint64_t three(int) { return 3; }
  bool in_kernel_;
  FlagSet gate_;
};

TEST(FusedOpDriver, DeadlockCheckNamesStuckPesAndUnsatisfiedWaits) {
  for (const bool in_kernel : {false, true}) {
    SCOPED_TRACE(in_kernel ? "wait in a kernel slot" : "wait in a PE body");
    gpu::Machine::Config cfg;
    cfg.num_nodes = 1;
    cfg.gpus_per_node = 2;
    gpu::Machine machine(cfg);
    shmem::World world(machine);

    StuckOp op(world, in_kernel);
    try {
      op.run_to_completion();
      FAIL() << "expected the deadlock check to fire";
    } catch (const std::logic_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("stuck_op deadlocked"), std::string::npos) << msg;
      EXPECT_NE(msg.find("stuck PE tasks (1/2): pe0"), std::string::npos)
          << msg;
      EXPECT_NE(msg.find("unsatisfied waits on 'gate' (1): [pe0][1]=0<3"),
                std::string::npos)
          << msg;
    }
    // Satisfy the wait and drain so the stranded run finishes instead of
    // leaking suspended coroutine frames.
    op.unstick();
    machine.engine().run();
    EXPECT_EQ(machine.engine().live_tasks(), 0);
  }
}

}  // namespace
}  // namespace fcc::fused
