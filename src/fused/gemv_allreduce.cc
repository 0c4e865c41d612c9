#include "fused/gemv_allreduce.h"

#include <algorithm>
#include <utility>

#include "framework/op_registry.h"
#include "gpu/persistent.h"
#include "sim/task.h"

namespace fcc::fused {

GemvAllReduceData GemvAllReduceData::random(const GemvAllReduceConfig& cfg,
                                            int num_pes,
                                            shmem::SymArray<float>* y,
                                            std::uint64_t seed) {
  GemvAllReduceData d;
  d.y = y;
  Rng rng(seed);
  const int kl = cfg.k_local(num_pes);
  for (int pe = 0; pe < num_pes; ++pe) {
    d.w.push_back(ops::random_vector(
        static_cast<std::size_t>(cfg.m) * static_cast<std::size_t>(kl), rng));
    d.x.push_back(ops::random_vector(static_cast<std::size_t>(kl), rng));
  }
  return d;
}

// ---------------------------------------------------------------------------
// Fused operator
// ---------------------------------------------------------------------------

FusedGemvAllReduce::FusedGemvAllReduce(shmem::World& world,
                                       GemvAllReduceConfig cfg,
                                       GemvAllReduceData* data)
    : FusedOp(world),
      cfg_(cfg),
      data_(data),
      num_pes_(world.n_pes()),
      shape_(cfg.shape(world.n_pes())),
      num_tiles_(shape_.num_tiles()) {
  FCC_CHECK_MSG(num_tiles_ % num_pes_ == 0,
                "tiles (" << num_tiles_ << ") must divide evenly across PEs");
  FCC_CHECK_MSG(cfg_.bookkeeping_ns >= 0,
                "GemvAllReduceConfig::bookkeeping_ns must be >= 0, got "
                    << cfg_.bookkeeping_ns);
  if (cfg_.functional) {
    FCC_CHECK(data_ != nullptr && data_->y != nullptr);
  }
  tile_cost_ = {ops::gemv_tile_cost(shape_.tile_rows, shape_.k,
                                    /*local_write=*/true, ops::kBaselineCurve),
                ops::gemv_tile_cost(shape_.tile_rows, shape_.k,
                                    /*local_write=*/false,
                                    ops::kBaselineCurve)};
  register_debug_flags("arrive", arrive_flags_);
  register_debug_flags("bcast", bcast_flags_);
}

PeId FusedGemvAllReduce::owner_of_tile(int tile) const {
  return tile / (num_tiles_ / num_pes_);
}

std::size_t FusedGemvAllReduce::flag_index(PeId src, int slot) const {
  return static_cast<std::size_t>(src) * static_cast<std::size_t>(active_slots_) +
         static_cast<std::size_t>(slot);
}

sim::Co FusedGemvAllReduce::run() {
  auto& machine = world_.machine();
  active_slots_ =
      OccupancyPlan::resolve(machine.device(0).spec(), kFusedKernelResources,
                             {.override_slots = cfg_.occupancy_slots_override,
                              .max_tasks = num_tiles_})
          .slots;
  // Built once, before any PE body exists (sharded bodies read them from
  // several threads).
  if (tile_cost_[0].by_active.empty()) {
    for (gpu::WorkCost& c : tile_cost_) {
      machine.device(0).tabulate(c, active_slots_);
    }
  }

  const std::size_t flags_per_pe = static_cast<std::size_t>(num_pes_) *
                                   static_cast<std::size_t>(active_slots_);
  arrive_flags_.reset(world_, flags_per_pe);
  bcast_flags_.reset(world_, flags_per_pe);
  if (cfg_.functional) {
    local_partial_.assign(static_cast<std::size_t>(num_pes_),
                          std::vector<float>(static_cast<std::size_t>(shape_.m),
                                             0.0f));
    temp_.assign(static_cast<std::size_t>(num_pes_),
                 std::vector<std::vector<float>>(
                     static_cast<std::size_t>(num_pes_),
                     std::vector<float>(static_cast<std::size_t>(shape_.m),
                                        0.0f)));
  }
  pe_done_.clear();
  for (int pe = 0; pe < num_pes_; ++pe) {
    // Each PE's slot join lives on that PE's home-shard engine, so slot
    // arrivals and the waiter's wakeup stay shard-local.
    pe_done_.push_back(std::make_unique<sim::JoinCounter>(
        machine.engine_of(pe), active_slots_));
  }
  co_await run_fused([this](PeId pe) { return pe_body(pe); });
}

sim::Co FusedGemvAllReduce::pe_body(PeId pe) {
  sim::Engine& engine = world_.machine().engine_of(pe);
  for (int s = 0; s < active_slots_; ++s) {
    slot_proc(engine, pe, s);
  }
  co_await pe_done_[static_cast<std::size_t>(pe)]->wait();
  result_.pe_end[static_cast<std::size_t>(pe)] = engine.now();
}

sim::Task FusedGemvAllReduce::slot_proc(sim::Engine& /*engine*/, PeId pe,
                                        int slot) {
  // Task list: tiles with tile % slots == slot, comm-aware ordered (tiles
  // this GPU does NOT own first, so their stores overlap local compute).
  const std::vector<int> mine = ordered_tasks(
      strided_tasks(slot, num_tiles_, active_slots_), cfg_.policy,
      [this, pe](int t) { return owner_of_tile(t) != pe; });

  auto& machine = world_.machine();
  auto& dev = machine.device(pe);
  for (int tile : mine) {
    const PeId owner = owner_of_tile(tile);
    const bool remote = owner != pe;

    const TimeNs t0 = machine.engine_of(pe).now();
    co_await dev.compute(tile_cost_[remote ? 1 : 0]);
    co_await dev.busy_wait(cfg_.bookkeeping_ns);

    std::vector<float> vals;
    if (cfg_.functional) {
      vals.resize(static_cast<std::size_t>(shape_.tile_rows));
      ops::gemv_tile(shape_, data_->w[static_cast<std::size_t>(pe)],
                     data_->x[static_cast<std::size_t>(pe)], tile, vals);
    }

    const int r0 = shape_.tile_begin(tile);
    const int r1 = shape_.tile_end(tile);
    if (!remote) {
      if (cfg_.functional) {
        auto& acc = local_partial_[static_cast<std::size_t>(pe)];
        for (int r = r0; r < r1; ++r) {
          acc[static_cast<std::size_t>(r)] =
              vals[static_cast<std::size_t>(r - r0)];
        }
      }
      continue;
    }

    // Zero-copy store of the partial tile into the owner's reduction buffer.
    std::function<void()> deliver;
    if (cfg_.functional) {
      auto* temp = &temp_[static_cast<std::size_t>(owner)]
                         [static_cast<std::size_t>(pe)];
      deliver = [temp, r0, r1, v = std::move(vals)] {
        for (int r = r0; r < r1; ++r) {
          (*temp)[static_cast<std::size_t>(r)] =
              v[static_cast<std::size_t>(r - r0)];
        }
      };
    }
    co_await world_.put_nbi(pe, owner, static_cast<Bytes>(r1 - r0) * 4,
                            shmem::World::IssueKind::kStore,
                            std::move(deliver));
    if (machine.trace_of(pe).enabled()) {
      machine.trace_of(pe).add_instant({"put", "comm", pe, slot, t0});
    }
  }

  // Arrival flags: data stores are ordered ahead of these by channel FIFO.
  co_await arrive_flags_.fence_and_signal_peers(world_, pe,
                                                flag_index(pe, slot));

  co_await reduce_and_broadcast(pe, slot);

  // Wait for the output rows owned by peers (their counterpart slots).
  for (PeId peer = 0; peer < num_pes_; ++peer) {
    if (peer == pe) continue;
    co_await bcast_flags_->wait_ge(pe, flag_index(peer, slot), 1);
  }
  pe_done_[static_cast<std::size_t>(pe)]->arrive();
}

sim::Co FusedGemvAllReduce::reduce_and_broadcast(PeId pe, int slot) {
  auto& dev = world_.machine().device(pe);

  // Wait for counterpart slots on every peer to finish storing partials.
  for (PeId peer = 0; peer < num_pes_; ++peer) {
    if (peer == pe) continue;
    co_await arrive_flags_->wait_ge(pe, flag_index(peer, slot), 1);
  }

  // Owned tiles assigned to this slot.
  std::vector<int> owned;
  for (int t : strided_tasks(slot, num_tiles_, active_slots_)) {
    if (owner_of_tile(t) == pe) owned.push_back(t);
  }
  if (owned.empty()) {
    // Still must release peers waiting on our broadcast flag.
    co_await bcast_flags_.signal_peers(world_, pe, flag_index(pe, slot));
    co_return;
  }

  for (int tile : owned) {
    const int r0 = shape_.tile_begin(tile);
    const int r1 = shape_.tile_end(tile);
    const Bytes tile_bytes = static_cast<Bytes>(r1 - r0) * 4;

    // Reduce: read N partials, write the result.
    gpu::WorkCost reduce_cost;
    reduce_cost.hbm_bytes = tile_bytes * (num_pes_ + 1);
    reduce_cost.flops = static_cast<double>(r1 - r0) * num_pes_;
    reduce_cost.curve = ops::kBaselineCurve;
    co_await dev.compute(reduce_cost);

    std::vector<float> final_vals;
    if (cfg_.functional) {
      final_vals.resize(static_cast<std::size_t>(r1 - r0));
      const auto& acc = local_partial_[static_cast<std::size_t>(pe)];
      for (int r = r0; r < r1; ++r) {
        float sum = acc[static_cast<std::size_t>(r)];
        for (PeId peer = 0; peer < num_pes_; ++peer) {
          if (peer == pe) continue;
          sum += temp_[static_cast<std::size_t>(pe)]
                      [static_cast<std::size_t>(peer)]
                      [static_cast<std::size_t>(r)];
        }
        final_vals[static_cast<std::size_t>(r - r0)] = sum;
      }
      // Local output rows.
      auto y = data_->y->pe(pe);
      for (int r = r0; r < r1; ++r) {
        y[static_cast<std::size_t>(r)] = final_vals[static_cast<std::size_t>(r - r0)];
      }
    }

    // Zero-copy broadcast of the reduced tile to every peer's output.
    for (PeId peer = 0; peer < num_pes_; ++peer) {
      if (peer == pe) continue;
      std::function<void()> deliver;
      if (cfg_.functional) {
        auto* out = data_->y;
        deliver = [out, peer, r0, r1, v = final_vals] {
          auto y = out->pe(peer);
          for (int r = r0; r < r1; ++r) {
            y[static_cast<std::size_t>(r)] = v[static_cast<std::size_t>(r - r0)];
          }
        };
      }
      co_await world_.put_nbi(pe, peer, tile_bytes,
                              shmem::World::IssueKind::kStore,
                              std::move(deliver));
    }
  }

  // Broadcast flags after all final-tile stores (channel FIFO + fence).
  co_await bcast_flags_.fence_and_signal_peers(world_, pe,
                                               flag_index(pe, slot));
}

// ---------------------------------------------------------------------------
// Bulk-synchronous baseline
// ---------------------------------------------------------------------------

BaselineGemvAllReduce::BaselineGemvAllReduce(shmem::World& world,
                                             GemvAllReduceConfig cfg,
                                             GemvAllReduceData* data)
    : BulkSyncOp(world), cfg_(cfg), data_(data) {
  FCC_CHECK_MSG(cfg_.bookkeeping_ns >= 0,
                "GemvAllReduceConfig::bookkeeping_ns must be >= 0, got "
                    << cfg_.bookkeeping_ns);
  if (cfg_.functional) {
    FCC_CHECK(data_ != nullptr && data_->y != nullptr);
  }
  slots_per_pe_ = OccupancyPlan::resolve(world_.machine().device(0).spec(),
                                         gpu::KernelResources{})
                      .slots;
  const auto shape = cfg_.shape(world_.n_pes());
  tile_cost_ = ops::gemv_tile_cost(shape.tile_rows, shape.k,
                                   /*local_write=*/true, ops::kBaselineCurve);
}

void BaselineGemvAllReduce::prepare() {
  // Runs in run() before any PE body is spawned.
  if (tile_cost_.by_active.empty()) {
    world_.machine().device(0).tabulate(tile_cost_, slots_per_pe_);
  }
  if (!cfg_.functional) return;
  partial_.assign(static_cast<std::size_t>(world_.n_pes()),
                  std::vector<float>(static_cast<std::size_t>(cfg_.m), 0.0f));
}

sim::Co BaselineGemvAllReduce::compute(PeId pe, TimeNs /*t0*/) {
  auto& machine = world_.machine();
  const auto shape = cfg_.shape(machine.num_pes());
  gpu::KernelRun::Params p;
  p.name = "gemv_kernel";
  p.num_slots = slots_per_pe_;
  p.order.resize(static_cast<std::size_t>(shape.num_tiles()));
  for (int t = 0; t < shape.num_tiles(); ++t) {
    p.order[static_cast<std::size_t>(t)] = t;
  }
  p.body = [this, pe](gpu::KernelRun& run, int slot) {
    return gemv_slot(run, pe, slot);
  };
  gpu::KernelRun kernel(machine.engine_of(pe), std::move(p));
  kernel.start();
  co_await kernel.wait();
}

sim::Co BaselineGemvAllReduce::gemv_slot(gpu::KernelRun& run, PeId pe,
                                         int slot) {
  auto& machine = world_.machine();
  auto& dev = machine.device(pe);
  const auto shape = cfg_.shape(machine.num_pes());
  for (int tile; (tile = co_await run.next(slot)) >= 0;) {
    co_await dev.compute(tile_cost_);
    if (!cfg_.functional) continue;
    std::vector<float> vals(static_cast<std::size_t>(shape.tile_rows));
    ops::gemv_tile(shape, data_->w[static_cast<std::size_t>(pe)],
                   data_->x[static_cast<std::size_t>(pe)], tile, vals);
    auto& part = partial_[static_cast<std::size_t>(pe)];
    for (int r = shape.tile_begin(tile); r < shape.tile_end(tile); ++r) {
      part[static_cast<std::size_t>(r)] =
          vals[static_cast<std::size_t>(r - shape.tile_begin(tile))];
    }
  }
}

sim::Co BaselineGemvAllReduce::collective(ccl::Communicator& comm) {
  ccl::FloatBufs bufs;
  if (cfg_.functional) {
    for (auto& p : partial_) bufs.per_rank.emplace_back(p);
  }
  co_await comm.all_reduce(cfg_.m, std::move(bufs), cfg_.allreduce_algo);
  if (cfg_.functional) {
    for (PeId pe = 0; pe < world_.n_pes(); ++pe) {
      const auto& p = partial_[static_cast<std::size_t>(pe)];
      std::copy(p.begin(), p.end(), data_->y->pe(pe).begin());
    }
  }
}

// ---------------------------------------------------------------------------
// Registry entry
// ---------------------------------------------------------------------------

namespace {

const fw::OpRegistrar gemv_allreduce_registrar{{
    .name = "fcc::gemv_allreduce",
    .make = fw::pair_factory<GemvAllReduceConfig, GemvAllReduceData,
                             FusedGemvAllReduce, BaselineGemvAllReduce>(),
    .smoke_spec =
        [] {
          GemvAllReduceConfig cfg;
          cfg.m = 2048;
          cfg.k_global = 2048;
          cfg.functional = false;
          return fw::make_spec("fcc::gemv_allreduce", cfg);
        },
    // Graph rewrite: row-parallel GEMV (carries the GemvAllReduceConfig)
    // feeding a bare all_reduce collapses into this op.
    .pattern = {"aten::mv", "c10d::all_reduce"},
    .shape_key =
        [](const fw::OpSpec& spec) {
          const auto& cfg = fw::spec_config<GemvAllReduceConfig>(spec);
          return "m=" + std::to_string(cfg.m) +
                 ",k=" + std::to_string(cfg.k_global) +
                 ",tile=" + std::to_string(cfg.tile_rows) +
                 ",ar=" + std::to_string(static_cast<int>(cfg.allreduce_algo));
        },
}};

}  // namespace

}  // namespace fcc::fused
