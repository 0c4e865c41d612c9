#include "triton/tile_lang.h"

#include <algorithm>
#include <utility>

#include "gpu/schedule.h"

namespace fcc::triton {

TileKernel::TileKernel(std::string name, ops::GemmShape shape,
                       double alu_efficiency)
    : name_(std::move(name)), shape_(shape), alu_efficiency_(alu_efficiency) {
  FCC_CHECK(shape_.m >= 1 && shape_.n >= 1 && shape_.k >= 1);
  FCC_CHECK(alu_efficiency_ > 0 && alu_efficiency_ <= 1.0);
}

void TileKernel::add(Stmt stmt) {
  if (stmt.kind == StmtKind::kPutRemote) ++puts_;
  if (stmt.kind == StmtKind::kPutRemote || stmt.kind == StmtKind::kFence ||
      stmt.kind == StmtKind::kAtomicAdd) {
    uses_comm_ = true;
  }
  stmts_.push_back(std::move(stmt));
  const int last = shape_.num_tiles() - 1;
  const int edge_rows = shape_.row_end(last) - shape_.row_begin(last);
  const int edge_cols = shape_.col_end(last) - shape_.col_begin(last);
  costs_.clear();
  for (int v = 0; v < variant(false, false, puts_ + 1); ++v) {
    costs_.push_back(tile_cost((v & 1) != 0 ? edge_rows : shape_.block_m,
                               (v & 2) != 0 ? edge_cols : shape_.block_n,
                               v / 4));
  }
}

gpu::WorkCost TileKernel::tile_cost(int rows, int cols, int local_puts) const {
  gpu::WorkCost cost;
  cost.alu_efficiency = alu_efficiency_;
  cost.curve = ops::kBaselineCurve;
  int puts = 0;
  for (const auto& s : stmts_) {
    switch (s.kind) {
      case StmtKind::kLoadA:
        cost.hbm_bytes += static_cast<Bytes>(rows) * shape_.k * 4;
        break;
      case StmtKind::kLoadB:
        cost.hbm_bytes += static_cast<Bytes>(shape_.k) * cols * 4;
        break;
      case StmtKind::kDot:
        cost.flops += 2.0 * rows * cols * shape_.k;
        break;
      case StmtKind::kStoreLocal:
        cost.hbm_bytes += static_cast<Bytes>(rows) * cols * 4;
        break;
      case StmtKind::kPutRemote:
        // Tiles that stay local are plain stores.
        if (puts++ < local_puts) {
          cost.hbm_bytes += static_cast<Bytes>(rows) * cols * 4;
        }
        break;
      default:
        break;
    }
  }
  return cost;
}

const gpu::WorkCost& TileKernel::pid_cost(PeId pe, int pid, int slot) const {
  const Ctx ctx{pe, pid, slot, &shape_};
  int local_puts = 0;
  for (const auto& s : stmts_) {
    if (s.kind == StmtKind::kPutRemote && s.dest(ctx) == ctx.pe) {
      ++local_puts;
    }
  }
  const int rows = shape_.row_end(pid) - shape_.row_begin(pid);
  const int cols = shape_.col_end(pid) - shape_.col_begin(pid);
  return costs_[static_cast<std::size_t>(variant(
      rows != shape_.block_m, cols != shape_.block_n, local_puts))];
}

int TileKernel::launch_slots(const hw::GpuSpec& spec,
                             int occupancy_slots_override) const {
  return occupancy_slots_override > 0 ? occupancy_slots_override
                                      : gpu::max_active_wgs(spec, resources());
}

void TileKernel::tabulate(const gpu::Device& dev) {
  const int last = shape_.num_tiles() - 1;
  const bool has_edge_rows =
      shape_.row_end(last) - shape_.row_begin(last) != shape_.block_m;
  const bool has_edge_cols =
      shape_.col_end(last) - shape_.col_begin(last) != shape_.block_n;
  for (std::size_t v = 0; v < costs_.size(); ++v) {
    // Variants no pid of this shape has keep no table.
    if (((v & 1) != 0 && !has_edge_rows) || ((v & 2) != 0 && !has_edge_cols)) {
      continue;
    }
    dev.tabulate(costs_[v]);
  }
}

TileKernel& TileKernel::load_a() {
  add({StmtKind::kLoadA, {}, {}, {}, nullptr, 0});
  return *this;
}

TileKernel& TileKernel::load_b() {
  add({StmtKind::kLoadB, {}, {}, {}, nullptr, 0});
  return *this;
}

TileKernel& TileKernel::dot() {
  add({StmtKind::kDot, {}, {}, {}, nullptr, 0});
  return *this;
}

TileKernel& TileKernel::store_c_local(WriteFn write) {
  add({StmtKind::kStoreLocal, {}, std::move(write), {}, nullptr, 0});
  return *this;
}

TileKernel& TileKernel::put_c_remote(DestFn dest, WriteFn write) {
  add({StmtKind::kPutRemote, std::move(dest), std::move(write), {}, nullptr,
       0});
  return *this;
}

TileKernel& TileKernel::fence() {
  add({StmtKind::kFence, {}, {}, {}, nullptr, 0});
  return *this;
}

TileKernel& TileKernel::atomic_add_remote(shmem::FlagArray* flags, DestFn dest,
                                          FlagIdxFn idx,
                                          std::uint64_t amount) {
  FCC_CHECK(flags != nullptr);
  FCC_CHECK_MSG(amount >= 1 && amount <= sim::FlagUpdate::kMaxAmount,
                "atomic_add_remote amount " << amount << " outside [1, "
                                            << sim::FlagUpdate::kMaxAmount
                                            << "]: a zero add never satisfies "
                                               "its consumer's wait");
  add({StmtKind::kAtomicAdd, std::move(dest), {}, std::move(idx), flags,
       amount});
  return *this;
}

gpu::KernelResources TileKernel::resources() const {
  gpu::KernelResources r;
  r.threads_per_wg = 256;
  r.vgprs_per_thread = 128 + (uses_comm_ ? gpu::kShmemCtxVgprsPerThread : 0);
  return r;
}

void TileKernel::validate() const {
  bool has_a = false, has_b = false, has_dot = false;
  for (const auto& s : stmts_) {
    switch (s.kind) {
      case StmtKind::kLoadA: has_a = true; break;
      case StmtKind::kLoadB: has_b = true; break;
      case StmtKind::kDot:
        FCC_CHECK_MSG(has_a && has_b, "dot() requires load_a() and load_b()");
        has_dot = true;
        break;
      case StmtKind::kStoreLocal:
      case StmtKind::kPutRemote:
        FCC_CHECK_MSG(has_dot, "C consumers require a preceding dot()");
        break;
      case StmtKind::kFence:
      case StmtKind::kAtomicAdd:
        break;
    }
  }
  FCC_CHECK_MSG(has_dot, "kernel computes nothing (no dot())");
}

const std::vector<int>& TileKernel::schedule(PeId pe) const {
  static const std::vector<int> kNone;
  return static_cast<std::size_t>(pe) < schedules_.size()
             ? schedules_[static_cast<std::size_t>(pe)]
             : kNone;
}

void TileKernel::build_schedules(int num_pes) {
  // Communication-aware order runs remote-destination tiles first, using
  // the first put statement's destination map.
  const DestFn* dest = nullptr;
  for (const auto& s : stmts_) {
    if (s.kind == StmtKind::kPutRemote) {
      dest = &s.dest;
      break;
    }
  }
  if (dest == nullptr) return;  // no put: every PE runs pids in order
  schedules_.resize(static_cast<std::size_t>(num_pes));
  for (PeId pe = 0; pe < num_pes; ++pe) {
    schedules_[static_cast<std::size_t>(pe)] =
        gpu::make_schedule(shape_.num_tiles(), [&](int pid) {
          return (*dest)(Ctx{pe, pid, 0, &shape_}) != pe;
        });
  }
}

/// One PE's launch: the KernelRun, and what every slot's steps share.
struct TileKernel::Run : gpu::KernelRun {
  Run(TileKernel& kernel, const LaunchConfig& cfg, Params params)
      : KernelRun(cfg.world->machine().device(cfg.pe), params),
        kernel(kernel),
        cfg(cfg) {}
  TileKernel& kernel;
  const LaunchConfig& cfg;
};

/// A slot's record: the pid in flight (once the queue drains, the next
/// flag of the flag wait), the statement it is at, and that statement's
/// remote PE while its issue is paid.
struct TileKernel::Slot : gpu::KernelRun::Slot {
  int pid;
  int stmt;
  PeId dest;
};

namespace {

/// Throws, naming the field, unless `cfg` names a world and its flag wait,
/// if any, stays within this PE's flags and has a threshold.
void check_launch(const TileKernel::LaunchConfig& cfg) {
  FCC_CHECK_MSG(cfg.world != nullptr, "LaunchConfig::world is null");
  const shmem::FlagArray* flags = cfg.wait_flags;
  if (flags == nullptr) return;
  FCC_CHECK_MSG(cfg.pe >= 0 && cfg.pe < flags->num_pes(),
                "LaunchConfig::pe " << cfg.pe << " outside the "
                                    << flags->num_pes()
                                    << " PEs of wait_flags");
  FCC_CHECK_MSG(cfg.wait_count >= 0 &&
                    static_cast<std::size_t>(cfg.wait_count) <= flags->size(),
                "LaunchConfig::wait_count " << cfg.wait_count
                                            << " outside [0, " << flags->size()
                                            << "], the flags per PE of "
                                               "wait_flags");
  FCC_CHECK_MSG(static_cast<bool>(cfg.wait_threshold),
                "LaunchConfig::wait_threshold is empty: a flag wait needs "
                "one");
}

}  // namespace

sim::Co TileKernel::launch(const LaunchConfig& cfg) {
  validate();
  check_launch(cfg);
  return run_grid(cfg);
}

sim::Co TileKernel::run_grid(const LaunchConfig& cfg) {
  auto& machine = cfg.world->machine();
  const auto& spec = machine.device(cfg.pe).spec();
  // Every PE's schedule (and its empty tile-buffer list) is built by the
  // first launch on any of them: PEs on other shards may launch
  // concurrently, and none rebuilds it later.
  std::call_once(schedules_built_, [this, &cfg] {
    build_schedules(cfg.world->n_pes());
    tiles_.resize(static_cast<std::size_t>(cfg.world->n_pes()));
  });

  const int slots = launch_slots(spec, cfg.occupancy_slots_override);
  // A functional launch's tile buffers, one per slot: only this PE's
  // launches touch its entry, so no other shard races the resize.
  if (cfg.functional) {
    auto& tiles = tiles_[static_cast<std::size_t>(cfg.pe)];
    tiles.resize(std::max(tiles.size(), static_cast<std::size_t>(slots)));
  }

  // The run lives on the launching PE's home-shard engine: launch() is
  // awaited from a per-PE body already running there, so every slot's
  // events and the join stay shard-local.
  Run run(*this, cfg,
          {.num_slots = slots,
           .num_wgs = shape_.num_tiles(),
           .wg_dispatch_overhead_ns = cfg.dispatch_overhead_ns});
  run.start(&claim);
  co_await run.wait();
}

void TileKernel::claim(Slot& s) {
  Run& r = static_cast<Run&>(*s.run);
  s.pid = r.kernel.pid_at(r.cfg.pe, r.next(s));
  if (s.pid < 0) {
    s.pid = s.index;
    poll_flags(&s);
    return;
  }
  if (r.dispatch_overhead() > 0) {
    r.after(r.dispatch_overhead(), s, &dispatched);
    return;
  }
  dispatched(&s);
}

void TileKernel::dispatched(sim::Call* c) {
  Slot& s = static_cast<Slot&>(*c);
  Run& r = static_cast<Run&>(*s.run);
  r.device().start_step(r.kernel.pid_cost(r.cfg.pe, s.pid, s.index), s,
                   &computed);
}

void TileKernel::computed(sim::Call* c) {
  Slot& s = static_cast<Slot&>(*c);
  Run& r = static_cast<Run&>(*s.run);
  r.device().end_step();
  if (r.cfg.functional) r.kernel.compute_tile(r.cfg, s.index, s.pid);
  s.stmt = 0;
  run_stmts(s);
}

void TileKernel::run_stmts(Slot& s) {
  Run& r = static_cast<Run&>(*s.run);
  TileKernel& k = r.kernel;
  const auto n = static_cast<int>(k.stmts_.size());
  for (; s.stmt < n; ++s.stmt) {
    const auto i = static_cast<std::size_t>(s.stmt);
    if (k.stmts_[i].kind == StmtKind::kFence) {
      ++s.stmt;
      r.cfg.world->fence_then(r.cfg.pe, s, &fenced);
      return;
    }
    s.dest = k.run_local(r.cfg, s.index, s.pid, i);
    if (s.dest < 0) continue;
    if (r.cfg.world->issue_then(r.cfg.pe, s.dest,
                                shmem::World::IssueKind::kStore, s,
                                &issued)) {
      return;
    }
    k.post_remote(r.cfg, s.index, s.pid, i, s.dest);
  }
  claim(s);
}

void TileKernel::fenced(sim::Call* c) { run_stmts(static_cast<Slot&>(*c)); }

void TileKernel::issued(sim::Call* c) {
  Slot& s = static_cast<Slot&>(*c);
  Run& r = static_cast<Run&>(*s.run);
  r.kernel.post_remote(r.cfg, s.index, s.pid,
                       static_cast<std::size_t>(s.stmt), s.dest);
  ++s.stmt;
  run_stmts(s);
}

void TileKernel::poll_flags(sim::Call* c) {
  Slot& s = static_cast<Slot&>(*c);
  Run& r = static_cast<Run&>(*s.run);
  const LaunchConfig& cfg = r.cfg;
  if (cfg.wait_flags == nullptr ||
      !cfg.wait_flags->poll_then(cfg.pe, s.pid, r.active_slots(),
                                 cfg.wait_count, cfg.wait_threshold, s,
                                 &poll_flags)) {
    r.finish(s);
  }
}

std::vector<float>& TileKernel::tile_buffer(PeId pe, int slot) {
  return tiles_[static_cast<std::size_t>(pe)][static_cast<std::size_t>(slot)];
}

void TileKernel::compute_tile(const LaunchConfig& cfg, int slot, int pid) {
  std::vector<float>& tile = tile_buffer(cfg.pe, slot);
  tile.resize(static_cast<std::size_t>(shape_.row_end(pid) -
                                       shape_.row_begin(pid)) *
              static_cast<std::size_t>(shape_.col_end(pid) -
                                       shape_.col_begin(pid)));
  ops::gemm_tile(shape_, cfg.a, cfg.b, pid, tile);
}

PeId TileKernel::run_local(const LaunchConfig& cfg, int slot, int pid,
                           std::size_t i) {
  const Stmt& s = stmts_[i];
  const Ctx ctx{cfg.pe, pid, slot, &shape_};
  switch (s.kind) {
    case StmtKind::kStoreLocal:
      if (cfg.functional && s.write) s.write(ctx, tile_buffer(cfg.pe, slot));
      return -1;
    case StmtKind::kPutRemote: {
      const PeId dest = s.dest(ctx);
      if (dest != cfg.pe) return dest;
      if (cfg.functional && s.write) s.write(ctx, tile_buffer(cfg.pe, slot));
      return -1;
    }
    case StmtKind::kAtomicAdd: {
      const PeId dest = s.dest(ctx);
      if (dest != cfg.pe) return dest;
      s.flags->add(dest, s.flag_idx(ctx), s.amount);
      return -1;
    }
    default:
      return -1;
  }
}

void TileKernel::post_remote(const LaunchConfig& cfg, int slot, int pid,
                             std::size_t i, PeId dest) {
  const Stmt& s = stmts_[i];
  const Ctx ctx{cfg.pe, pid, slot, &shape_};
  if (s.kind == StmtKind::kAtomicAdd) {
    cfg.world->put(cfg.pe, dest, 8,
                   s.flags->add_update(dest, s.flag_idx(ctx), s.amount));
    return;
  }
  // kPutRemote: the tile's C, carried by the delivery in functional mode.
  const Bytes tile_bytes =
      static_cast<Bytes>(shape_.row_end(pid) - shape_.row_begin(pid)) *
      (shape_.col_end(pid) - shape_.col_begin(pid)) * 4;
  std::function<void()> deliver;
  if (cfg.functional && s.write) {
    deliver = [w = s.write, ctx, t = tile_buffer(cfg.pe, slot)] { w(ctx, t); };
  }
  cfg.world->put(cfg.pe, dest, tile_bytes, std::move(deliver));
}

}  // namespace fcc::triton
