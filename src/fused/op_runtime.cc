#include "fused/op_runtime.h"

#include <algorithm>
#include <utility>

namespace fcc::fused {

// ---------------------------------------------------------------------------
// OccupancyPlan
// ---------------------------------------------------------------------------

OccupancyPlan OccupancyPlan::resolve(const hw::GpuSpec& spec,
                                     const gpu::KernelResources& resources,
                                     const OccupancyOptions& opt) {
  OccupancyPlan plan;
  if (opt.override_slots > 0) {
    plan.slots = opt.override_slots;
  } else {
    plan.slots = gpu::max_active_wgs(spec, resources);
    if (opt.knee_frac > 0.0) {
      const int knee =
          static_cast<int>(spec.max_wg_slots() * opt.knee_frac);
      plan.slots = std::min(plan.slots, knee);
    }
  }
  if (opt.max_tasks > 0) plan.slots = std::min(plan.slots, opt.max_tasks);
  FCC_CHECK_MSG(plan.slots >= 1,
                "occupancy plan resolved to " << plan.slots << " slots");
  return plan;
}

// ---------------------------------------------------------------------------
// FusedOp driver
// ---------------------------------------------------------------------------

FusedOp::FusedOp(shmem::World& world) : world_(world) {
  const gpu::Machine& m = world_.machine();
  FCC_CHECK_MSG(m.supports_fused_ops(),
                "fused operators on a sharded machine need kernel_launch_ns ("
                    << m.config().gpu.kernel_launch_ns
                    << ") >= the fabric's conservative lookahead ("
                    << m.lookahead()
                    << "): per-PE bodies spawn cross-shard at t + "
                       "kernel_launch_ns. Raise gpu.kernel_launch_ns, pick a "
                       "fabric with a smaller min inter-shard latency, or "
                       "set num_shards=1");
}

void FusedOp::begin_run(int num_pes) {
  result_ = OperatorResult{};
  result_.start = engine().now();
  result_.pe_end.assign(static_cast<std::size_t>(num_pes), 0);
}

void FusedOp::finish_run() { result_.end = engine().now(); }

void FusedOp::finish_run_uniform() {
  result_.end = engine().now();
  std::fill(result_.pe_end.begin(), result_.pe_end.end(), result_.end);
}

namespace {

/// One per-PE body wrapper, spawned on the PE's home-shard engine: runs the
/// body, marks the PE done, and arrives on the cross-shard join with its
/// local completion time. `body` outlives the join (run_per_pe_at's frame
/// holds it), so the frame keeps a reference.
sim::Task pe_task(sim::Engine& engine,
                  const std::function<sim::Co(PeId)>& body, PeId pe,
                  std::vector<std::uint8_t>& pe_done, sim::ShardJoin& join,
                  int shard) {
  co_await body(pe);
  pe_done[static_cast<std::size_t>(pe)] = 1;
  join.arrive(shard, engine.now());
}

}  // namespace

sim::Co FusedOp::run_per_pe_at(TimeNs t_start, int num_pes,
                               std::function<sim::Co(PeId)> body) {
  auto& machine = world_.machine();
  // A spawn inside the lookahead window breaks the sharded protocol; the
  // constructor's check covers every t_start of now + kernel_launch_ns.
  FCC_CHECK(!machine.is_sharded() ||
            t_start >= engine().now() + machine.lookahead());
  pe_done_.assign(static_cast<std::size_t>(num_pes), 0);
  // Home shard 0: every driver coroutine runs on engine() (see spawn()).
  join_ = std::make_unique<sim::ShardJoin>(machine.sharded(), /*home=*/0,
                                           num_pes);
  for (PeId pe = 0; pe < num_pes; ++pe) {
    const int shard = machine.shard_of(pe);
    sim::Engine& home = machine.engine_of(pe);
    // `body` by pointer: it lives in this frame until the join, and the
    // callback stays within the engine's inline buffer.
    auto spawn = [this, &home, body = &body, pe, shard] {
      pe_task(home, *body, pe, pe_done_, *join_, shard);
    };
    if (shard == 0) {
      // The driver's own shard: scheduled directly, preserving the serial
      // engine's (time, seq) order — bodies fire in PE order at t_start.
      home.schedule_at(t_start, std::move(spawn));
    } else {
      // Cross-shard: through the mailbox; injected at the next barrier in
      // post order, so same-shard bodies still fire in PE order.
      machine.sharded().post(0, shard, t_start, std::move(spawn));
    }
  }
  co_await join_->wait();
}

sim::Co FusedOp::run_fused(std::function<sim::Co(PeId)> body) {
  const auto& spec = world_.machine().device(0).spec();
  begin_run(world_.n_pes());
  co_await run_per_pe_at(engine().now() + spec.kernel_launch_ns,
                         world_.n_pes(), std::move(body));
  co_await sim::delay(engine(), spec.stream_sync_ns);
  finish_run();
}

void FusedOp::register_debug_flags(std::string name, const FlagSet& flags) {
  debug_flags_.emplace_back(std::move(name), &flags);
}

std::string FusedOp::deadlock_report() const {
  constexpr std::size_t kMaxListed = 8;
  std::string out;
  std::size_t stuck = 0;
  for (std::uint8_t d : pe_done_) stuck += d == 0 ? 1 : 0;
  if (stuck > 0) {
    out += "\n  stuck PE tasks (" + std::to_string(stuck) + "/" +
           std::to_string(pe_done_.size()) + "):";
    std::size_t listed = 0;
    for (std::size_t pe = 0; pe < pe_done_.size() && listed < kMaxListed;
         ++pe) {
      if (pe_done_[pe] != 0) continue;
      out += " pe" + std::to_string(pe);
      ++listed;
    }
    if (stuck > listed) {
      out += " +" + std::to_string(stuck - listed) + " more";
    }
  }
  for (const auto& [flag_name, set] : debug_flags_) {
    if (set == nullptr || !*set) continue;
    const auto waits = set->get()->pending_waits();
    if (waits.empty()) continue;
    out += "\n  unsatisfied waits on '" + flag_name + "' (" +
           std::to_string(waits.size()) + "):";
    for (std::size_t i = 0; i < waits.size() && i < kMaxListed; ++i) {
      const auto& w = waits[i];
      out += " [pe" + std::to_string(w.pe) + "][" + std::to_string(w.index) +
             "]=" + std::to_string(w.value) + "<" +
             std::to_string(w.threshold);
    }
    if (waits.size() > kMaxListed) {
      out += " +" + std::to_string(waits.size() - kMaxListed) + " more";
    }
  }
  if (out.empty()) {
    out = "\n  (no stuck-PE or registered-flag diagnostics available)";
  }
  return out;
}

sim::OneShot& FusedOp::spawn() {
  FCC_CHECK_MSG(completion_ == nullptr || completion_->is_set(),
                name() << " spawned while a previous run is in flight");
  completion_ = std::make_unique<sim::OneShot>(engine());
  struct Driver {
    static sim::Task go(sim::Engine&, FusedOp& op, sim::OneShot& done) {
      co_await op.run();
      done.set();
    }
  };
  Driver::go(engine(), *this, *completion_);
  return *completion_;
}

OperatorResult FusedOp::run_to_completion() {
  auto& machine = world_.machine();
  sim::OneShot& done = spawn();
  machine.run_all();
  const int live = machine.sharded().live_tasks();
  FCC_CHECK_MSG(done.is_set() && live == 0,
                name() << " deadlocked: " << live << " tasks suspended"
                       << deadlock_report());
  return result_;
}

// ---------------------------------------------------------------------------
// BulkSyncOp
// ---------------------------------------------------------------------------

BulkSyncOp::BulkSyncOp(shmem::World& world)
    : FusedOp(world), comm_(world.machine(), all_pes(world.machine())) {}

sim::Co BulkSyncOp::run() {
  auto& engine = this->engine();
  const auto& spec = world_.machine().device(0).spec();
  const int pes = world_.n_pes();

  begin_run(pes);
  prepare();
  const TimeNs t0 = engine.now();
  co_await run_per_pe_at(t0 + spec.kernel_launch_ns, pes,
                         [this, t0](PeId pe) { return compute(pe, t0); });
  co_await sim::delay(engine, spec.stream_sync_ns);
  co_await sim::delay(engine, spec.kernel_launch_ns);
  co_await collective(comm_);
  co_await sim::delay(engine, spec.stream_sync_ns);
  finish_run_uniform();
}

// ---------------------------------------------------------------------------
// Free helpers
// ---------------------------------------------------------------------------

std::vector<PeId> all_pes(gpu::Machine& machine) {
  std::vector<PeId> v;
  v.reserve(static_cast<std::size_t>(machine.num_pes()));
  for (PeId p = 0; p < machine.num_pes(); ++p) v.push_back(p);
  return v;
}

void check_positive(const char* field, int value) {
  FCC_CHECK_MSG(value >= 1, field << " must be >= 1, got " << value);
}

void check_slots_override(const char* field, int value) {
  FCC_CHECK_MSG(value >= 0, field << " must be >= 0 (0 derives the slot "
                                     "count from occupancy), got "
                                  << value);
}

}  // namespace fcc::fused
