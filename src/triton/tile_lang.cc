#include "triton/tile_lang.h"

#include <algorithm>
#include <utility>

namespace fcc::triton {

TileKernel::TileKernel(std::string name, ops::GemmShape shape,
                       double alu_efficiency)
    : name_(std::move(name)), shape_(shape), alu_efficiency_(alu_efficiency) {
  FCC_CHECK(shape_.m >= 1 && shape_.n >= 1 && shape_.k >= 1);
  FCC_CHECK(alu_efficiency_ > 0 && alu_efficiency_ <= 1.0);
}

TileKernel& TileKernel::load_a() {
  stmts_.push_back({StmtKind::kLoadA, {}, {}, {}, nullptr, 0});
  return *this;
}

TileKernel& TileKernel::load_b() {
  stmts_.push_back({StmtKind::kLoadB, {}, {}, {}, nullptr, 0});
  return *this;
}

TileKernel& TileKernel::dot() {
  stmts_.push_back({StmtKind::kDot, {}, {}, {}, nullptr, 0});
  return *this;
}

TileKernel& TileKernel::store_c_local(WriteFn write) {
  stmts_.push_back(
      {StmtKind::kStoreLocal, {}, std::move(write), {}, nullptr, 0});
  return *this;
}

TileKernel& TileKernel::put_c_remote(DestFn dest, WriteFn write) {
  stmts_.push_back({StmtKind::kPutRemote, std::move(dest), std::move(write),
                    {}, nullptr, 0});
  uses_comm_ = true;
  return *this;
}

TileKernel& TileKernel::fence() {
  stmts_.push_back({StmtKind::kFence, {}, {}, {}, nullptr, 0});
  uses_comm_ = true;
  return *this;
}

TileKernel& TileKernel::atomic_add_remote(shmem::FlagArray* flags, DestFn dest,
                                          FlagIdxFn idx,
                                          std::uint64_t amount) {
  FCC_CHECK(flags != nullptr);
  stmts_.push_back({StmtKind::kAtomicAdd, std::move(dest), {}, std::move(idx),
                    flags, amount});
  uses_comm_ = true;
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

sim::Co TileKernel::launch(const LaunchConfig& cfg) {
  validate();
  FCC_CHECK(cfg.world != nullptr);
  auto& machine = cfg.world->machine();
  const auto& spec = machine.device(cfg.pe).spec();

  // Scheduling: communication-aware order runs remote-destination tiles
  // first, using the first put statement's destination map.
  DestFn dest_probe;
  for (const auto& s : stmts_) {
    if (s.kind == StmtKind::kPutRemote) {
      dest_probe = s.dest;
      break;
    }
  }
  const PeId pe = cfg.pe;
  auto is_remote = [&](int pid) {
    if (!dest_probe) return false;
    Ctx ctx{pe, pid, 0, &shape_};
    return dest_probe(ctx) != pe;
  };

  gpu::KernelRun::Params p;
  p.name = name_;
  p.num_slots = cfg.occupancy_slots_override > 0
                    ? cfg.occupancy_slots_override
                    : gpu::max_active_wgs(spec, resources());
  p.order = gpu::make_schedule(shape_.num_tiles(), cfg.policy, is_remote);
  p.wg_dispatch_overhead_ns = cfg.dispatch_overhead_ns;
  p.body = [this, &cfg](gpu::KernelRun& run, int slot) {
    return run_slot(cfg, run, slot);
  };

  // The run lives on the launching PE's home-shard engine: launch() is
  // awaited from a per-PE body already running there, so every slot task
  // and the join stay shard-local.
  gpu::KernelRun run(machine.engine_of(cfg.pe), std::move(p));
  run.start();
  co_await run.wait();
}

sim::Co TileKernel::run_slot(const LaunchConfig& cfg, gpu::KernelRun& run,
                             int slot) {
  auto& world = *cfg.world;
  auto& dev = world.machine().device(cfg.pe);
  for (int pid; (pid = co_await run.next(slot)) >= 0;) {
    const Ctx ctx{cfg.pe, pid, slot, &shape_};

    const int rows = shape_.row_end(pid) - shape_.row_begin(pid);
    const int cols = shape_.col_end(pid) - shape_.col_begin(pid);

    // Aggregate the compute cost of this pid: panel loads + dot + local
    // stores. (Remote puts ride the fabric, not local HBM.)
    gpu::WorkCost cost;
    cost.alu_efficiency = alu_efficiency_;
    cost.curve = ops::kBaselineCurve;
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
        case StmtKind::kPutRemote: {
          // Tiles that stay local are plain stores.
          if (s.dest(ctx) == cfg.pe) {
            cost.hbm_bytes += static_cast<Bytes>(rows) * cols * 4;
          }
          break;
        }
        default:
          break;
      }
    }
    co_await dev.compute(cost);

    // Functional tile math, shared by every C consumer.
    std::vector<float> tile;
    if (cfg.functional) {
      tile.resize(static_cast<std::size_t>(rows) *
                  static_cast<std::size_t>(cols));
      ops::gemm_tile(shape_, cfg.a, cfg.b, pid, tile);
    }

    const Bytes tile_bytes = static_cast<Bytes>(rows) * cols * 4;
    for (const auto& s : stmts_) {
      switch (s.kind) {
        case StmtKind::kStoreLocal:
          if (cfg.functional && s.write) s.write(ctx, tile);
          break;
        case StmtKind::kPutRemote: {
          const PeId dest = s.dest(ctx);
          if (dest == cfg.pe) {
            if (cfg.functional && s.write) s.write(ctx, tile);
            break;
          }
          std::function<void()> deliver;
          if (cfg.functional && s.write) {
            deliver = [w = s.write, ctx, t = tile] { w(ctx, t); };
          }
          co_await world.put_nbi(cfg.pe, dest, tile_bytes,
                                 shmem::World::IssueKind::kStore,
                                 std::move(deliver));
          break;
        }
        case StmtKind::kFence:
          co_await world.fence(cfg.pe);
          break;
        case StmtKind::kAtomicAdd: {
          const PeId dest = s.dest(ctx);
          auto* flags = s.flags;
          const std::size_t idx = s.flag_idx(ctx);
          const std::uint64_t amount = s.amount;
          if (dest == cfg.pe) {
            flags->add(dest, idx, amount);
          } else {
            co_await world.put_nbi(
                cfg.pe, dest, 8, shmem::World::IssueKind::kStore,
                [flags, dest, idx, amount] { flags->add(dest, idx, amount); });
          }
          break;
        }
        default:
          break;
      }
    }
  }
  if (cfg.epilogue) co_await cfg.epilogue(slot, run.active_slots());
}

}  // namespace fcc::triton
