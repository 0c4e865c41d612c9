#include "fused/gemv_allreduce.h"

#include <algorithm>
#include <utility>

#include "framework/op_registry.h"
#include "gpu/schedule.h"

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

namespace {

/// Construction-time check of the fields both backends read.
GemvAllReduceConfig checked(const GemvAllReduceConfig& cfg,
                            const GemvAllReduceData* data) {
  check_positive("GemvAllReduceConfig::m", cfg.m);
  check_positive("GemvAllReduceConfig::k_global", cfg.k_global);
  check_positive("GemvAllReduceConfig::tile_rows", cfg.tile_rows);
  check_slots_override("GemvAllReduceConfig::occupancy_slots_override",
                       cfg.occupancy_slots_override);
  if (cfg.functional) {
    FCC_CHECK(data != nullptr && data->y != nullptr);
  }
  return cfg;
}

/// The peer after `peer` other than `pe` (the first for peer = -1).
PeId next_peer(PeId pe, PeId peer) { return ++peer == pe ? peer + 1 : peer; }

}  // namespace

// ---------------------------------------------------------------------------
// Fused operator
// ---------------------------------------------------------------------------

FusedGemvAllReduce::FusedGemvAllReduce(shmem::World& world,
                                       GemvAllReduceConfig cfg,
                                       GemvAllReduceData* data)
    : FusedOp(world),
      cfg_(checked(cfg, data)),
      data_(data),
      num_pes_(world.n_pes()),
      shape_(cfg.shape(world.n_pes())),
      num_tiles_(shape_.num_tiles()) {
  FCC_CHECK_MSG(num_tiles_ % num_pes_ == 0,
                "tiles (" << num_tiles_ << ") must divide evenly across PEs");
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

void FusedGemvAllReduce::build_tables() {
  const gpu::Device& dev = world_.machine().device(0);
  auto reduce_cost = [this](int rows) {
    // Read N partials, write the result.
    gpu::WorkCost c;
    c.hbm_bytes = static_cast<Bytes>(rows) * 4 * (num_pes_ + 1);
    c.flops = static_cast<double>(rows) * num_pes_;
    c.curve = ops::kBaselineCurve;
    return c;
  };
  const int last = num_tiles_ - 1;
  tile_cost_ = {ops::gemv_tile_cost(shape_.tile_rows, shape_.k,
                                    /*local_write=*/true, ops::kBaselineCurve),
                ops::gemv_tile_cost(shape_.tile_rows, shape_.k,
                                    /*local_write=*/false,
                                    ops::kBaselineCurve)};
  reduce_cost_ = {reduce_cost(shape_.tile_rows),
                  reduce_cost(shape_.tile_end(last) - shape_.tile_begin(last))};
  for (auto* costs : {&tile_cost_, &reduce_cost_}) {
    for (gpu::WorkCost& c : *costs) dev.tabulate(c);
  }

  // Slot s's tiles are s, s + slots, ...; it runs them comm-aware (tiles
  // this GPU does NOT own first, so their stores overlap local compute).
  const int slots = active_slots_;
  order_.assign(static_cast<std::size_t>(num_pes_),
                std::vector<int>(static_cast<std::size_t>(num_tiles_)));
  for (PeId pe = 0; pe < num_pes_; ++pe) {
    auto& order = order_[static_cast<std::size_t>(pe)];
    for (int s = 0; s < slots; ++s) {
      const int n = (num_tiles_ - s + slots - 1) / slots;
      const std::vector<int> mine = gpu::make_schedule(
          n, [&](int j) { return owner_of_tile(s + j * slots) != pe; });
      for (int j = 0; j < n; ++j) {
        order[static_cast<std::size_t>(s + j * slots)] =
            s + mine[static_cast<std::size_t>(j)] * slots;
      }
    }
  }
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
  if (order_.empty()) build_tables();

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
  co_await run_fused([this](PeId pe) { return pe_body(pe); });
}

/// One PE's launch: the KernelRun, and what every slot's steps share.
struct FusedGemvAllReduce::Kernel : gpu::KernelRun {
  Kernel(FusedGemvAllReduce& op, PeId pe, Params params)
      : KernelRun(op.world_.machine().device(pe), params), op(op) {}
  FusedGemvAllReduce& op;
};

/// A slot's record: the tile in flight, and once the queue drains, where
/// steps 2-4 are.
struct FusedGemvAllReduce::Slot : gpu::KernelRun::Slot {
  int tile;      // the tile computed (step 1) or reduced (step 3)
  PeId peer;     // the peer a signal or broadcast loop is at
  int flag;      // the position of a flag wait (FlagArray::poll_then)
  bool bcast;    // steps 3-4 (broadcast flags), else step 2 (arrivals)
  bool reduced;  // step 3 reduced a tile
};

sim::Co FusedGemvAllReduce::pe_body(PeId pe) {
  Kernel k(*this, pe,
           {.num_slots = active_slots_,
            .num_wgs = num_tiles_,
            .static_assignment = true});
  k.start(&claim);
  co_await k.wait();
  result_.pe_end[static_cast<std::size_t>(pe)] = k.engine().now();
}

void FusedGemvAllReduce::claim(Slot& s) {
  Kernel& k = static_cast<Kernel&>(*s.run);
  FusedGemvAllReduce& op = k.op;
  s.tile = op.tile_at(k.pe(), k.next(s));
  if (s.tile < 0) {
    // Arrival flags: the fence orders the data stores ahead of them.
    op.world_.fence_then(k.pe(), s, &fenced);
    return;
  }
  const bool remote = op.owner_of_tile(s.tile) != k.pe();
  k.device().start_step(op.tile_cost_[remote ? 1 : 0], s, &computed);
}

void FusedGemvAllReduce::computed(sim::Call* c) {
  Slot& s = static_cast<Slot&>(*c);
  Kernel& k = static_cast<Kernel&>(*s.run);
  k.device().end_step();
  k.device().wait_then(ops::kFusedWgBookkeepingNs, s, &bookkept);
}

void FusedGemvAllReduce::bookkept(sim::Call* c) {
  Slot& s = static_cast<Slot&>(*c);
  Kernel& k = static_cast<Kernel&>(*s.run);
  const PeId owner = k.op.owner_of_tile(s.tile);
  if (owner != k.pe() &&
      k.op.world_.issue_then(k.pe(), owner, shmem::World::IssueKind::kStore, s,
                             &posted)) {
    return;
  }
  posted(c);
}

void FusedGemvAllReduce::posted(sim::Call* c) {
  Slot& s = static_cast<Slot&>(*c);
  Kernel& k = static_cast<Kernel&>(*s.run);
  k.op.post_partial(k.pe(), s.index, s.tile);
  claim(s);
}

void FusedGemvAllReduce::fenced(sim::Call* c) {
  Slot& s = static_cast<Slot&>(*c);
  s.peer = next_peer(s.run->pe(), -1);
  signal_peers(s);
}

void FusedGemvAllReduce::signal_peers(Slot& s) {
  Kernel& k = static_cast<Kernel&>(*s.run);
  FusedGemvAllReduce& op = k.op;
  for (; s.peer < op.num_pes_; s.peer = next_peer(k.pe(), s.peer)) {
    if (op.world_.issue_then(k.pe(), s.peer, shmem::World::IssueKind::kStore,
                             s, &signal_issued)) {
      return;
    }
    op.signal(s);
  }
  // Wait for the counterpart slots on every peer: the flags at position
  // peer * slots + slot. This PE's own flag is never set; a zero threshold
  // skips it.
  s.flag = s.index;
  wait_peers(&s);
}

void FusedGemvAllReduce::signal_issued(sim::Call* c) {
  Slot& s = static_cast<Slot&>(*c);
  Kernel& k = static_cast<Kernel&>(*s.run);
  k.op.signal(s);
  s.peer = next_peer(k.pe(), s.peer);
  signal_peers(s);
}

void FusedGemvAllReduce::signal(const Slot& s) {
  const PeId pe = s.run->pe();
  (s.bcast ? bcast_flags_ : arrive_flags_)
      .signal(world_, pe, s.peer, flag_index(pe, s.index));
}

void FusedGemvAllReduce::wait_peers(sim::Call* c) {
  Slot& s = static_cast<Slot&>(*c);
  Kernel& k = static_cast<Kernel&>(*s.run);
  FusedGemvAllReduce& op = k.op;
  const PeId pe = k.pe();
  const int slots = op.active_slots_;
  const auto others = [pe, slots](int i) -> std::uint64_t {
    return i / slots == pe ? 0 : 1;
  };
  if ((s.bcast ? op.bcast_flags_ : op.arrive_flags_)
          ->poll_then(pe, s.flag, slots, op.num_pes_ * slots, others, s,
                      &wait_peers)) {
    return;
  }
  if (s.bcast) {
    // Step 4 done: the output rows owned by peers are in.
    k.finish(s);
    return;
  }
  // Step 3: the owned tiles assigned to this slot.
  s.bcast = true;
  s.tile = s.index - slots;
  reduce_next(s);
}

void FusedGemvAllReduce::reduce_next(Slot& s) {
  Kernel& k = static_cast<Kernel&>(*s.run);
  FusedGemvAllReduce& op = k.op;
  do {
    s.tile += op.active_slots_;
  } while (s.tile < op.num_tiles_ && op.owner_of_tile(s.tile) != k.pe());
  if (s.tile < op.num_tiles_) {
    s.reduced = true;
    k.device().start_step(op.reduce_cost_[s.tile == op.num_tiles_ - 1 ? 1 : 0],
                          s, &tile_reduced);
    return;
  }
  // Broadcast flags, fenced behind the final-tile stores. A slot that owns
  // no tile still signals: peers wait on every counterpart's flag.
  if (s.reduced) {
    op.world_.fence_then(k.pe(), s, &fenced);
    return;
  }
  fenced(&s);
}

void FusedGemvAllReduce::tile_reduced(sim::Call* c) {
  Slot& s = static_cast<Slot&>(*c);
  Kernel& k = static_cast<Kernel&>(*s.run);
  k.device().end_step();
  if (k.op.cfg_.functional) k.op.reduce_tile(k.pe(), s.tile);
  // Zero-copy broadcast of the reduced tile to every peer's output.
  s.peer = next_peer(k.pe(), -1);
  broadcast(s);
}

void FusedGemvAllReduce::broadcast(Slot& s) {
  Kernel& k = static_cast<Kernel&>(*s.run);
  FusedGemvAllReduce& op = k.op;
  for (; s.peer < op.num_pes_; s.peer = next_peer(k.pe(), s.peer)) {
    if (op.world_.issue_then(k.pe(), s.peer, shmem::World::IssueKind::kStore,
                             s, &broadcast_issued)) {
      return;
    }
    op.post_broadcast(k.pe(), s.peer, s.tile);
  }
  reduce_next(s);
}

void FusedGemvAllReduce::broadcast_issued(sim::Call* c) {
  Slot& s = static_cast<Slot&>(*c);
  Kernel& k = static_cast<Kernel&>(*s.run);
  k.op.post_broadcast(k.pe(), s.peer, s.tile);
  s.peer = next_peer(k.pe(), s.peer);
  broadcast(s);
}

void FusedGemvAllReduce::post_partial(PeId pe, int slot, int tile) {
  const PeId owner = owner_of_tile(tile);
  const int r0 = shape_.tile_begin(tile);
  const int r1 = shape_.tile_end(tile);
  std::vector<float> vals;
  if (cfg_.functional) {
    vals.resize(static_cast<std::size_t>(shape_.tile_rows));
    ops::gemv_tile(shape_, data_->w[static_cast<std::size_t>(pe)],
                   data_->x[static_cast<std::size_t>(pe)], tile, vals);
  }
  if (owner == pe) {
    if (cfg_.functional) {
      auto& acc = local_partial_[static_cast<std::size_t>(pe)];
      for (int r = r0; r < r1; ++r) {
        acc[static_cast<std::size_t>(r)] =
            vals[static_cast<std::size_t>(r - r0)];
      }
    }
    return;
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
  world_.put(pe, owner, static_cast<Bytes>(r1 - r0) * 4, std::move(deliver));
  auto& trace = world_.machine().trace_of(pe);
  if (trace.enabled()) {
    trace.add_instant(
        {"put", "comm", pe, slot, world_.machine().engine_of(pe).now()});
  }
}

void FusedGemvAllReduce::reduce_tile(PeId pe, int tile) {
  const auto& acc = local_partial_[static_cast<std::size_t>(pe)];
  auto y = data_->y->pe(pe);
  for (int r = shape_.tile_begin(tile); r < shape_.tile_end(tile); ++r) {
    float sum = acc[static_cast<std::size_t>(r)];
    for (PeId peer = 0; peer < num_pes_; ++peer) {
      if (peer == pe) continue;
      sum += temp_[static_cast<std::size_t>(pe)]
                  [static_cast<std::size_t>(peer)]
                  [static_cast<std::size_t>(r)];
    }
    y[static_cast<std::size_t>(r)] = sum;
  }
}

void FusedGemvAllReduce::post_broadcast(PeId pe, PeId peer, int tile) {
  const int r0 = shape_.tile_begin(tile);
  const int r1 = shape_.tile_end(tile);
  std::function<void()> deliver;
  if (cfg_.functional) {
    // Only this slot writes PE `pe`'s rows of its own tiles, so they still
    // hold the reduced values after the issue delay.
    const auto mine = data_->y->pe(pe);
    deliver = [out = data_->y, peer, r0,
               v = std::vector<float>(mine.begin() + r0, mine.begin() + r1)] {
      auto y = out->pe(peer);
      std::copy(v.begin(), v.end(), y.begin() + r0);
    };
  }
  world_.put(pe, peer, static_cast<Bytes>(r1 - r0) * 4, std::move(deliver));
}

// ---------------------------------------------------------------------------
// Bulk-synchronous baseline
// ---------------------------------------------------------------------------

BaselineGemvAllReduce::BaselineGemvAllReduce(shmem::World& world,
                                             GemvAllReduceConfig cfg,
                                             GemvAllReduceData* data)
    : BulkSyncOp(world), cfg_(checked(cfg, data)), data_(data) {
  auto& machine = world_.machine();
  FCC_CHECK_MSG(cfg_.allreduce_algo != ccl::AllReduceAlgo::kHierarchical ||
                    communicator().hierarchy_eligible(),
                "GemvAllReduceConfig::allreduce_algo kHierarchical needs a "
                "span of >1 node with equal, >1 GPU counts; this span is "
                    << machine.num_nodes() << " node(s) x "
                    << machine.gpus_per_node()
                    << " GPU(s): use kAuto or a flat algorithm");
  slots_per_pe_ = OccupancyPlan::resolve(machine.device(0).spec(),
                                         gpu::KernelResources{})
                      .slots;
  const auto shape = cfg_.shape(world_.n_pes());
  tile_cost_ = ops::gemv_tile_cost(shape.tile_rows, shape.k,
                                   /*local_write=*/true, ops::kBaselineCurve);
}

void BaselineGemvAllReduce::prepare() {
  // Runs in run() before any PE body is spawned.
  if (tile_cost_.by_active.empty()) {
    world_.machine().device(0).tabulate(tile_cost_);
  }
  if (!cfg_.functional) return;
  partial_.assign(static_cast<std::size_t>(world_.n_pes()),
                  std::vector<float>(static_cast<std::size_t>(cfg_.m), 0.0f));
}

sim::Co BaselineGemvAllReduce::compute(PeId pe, TimeNs /*t0*/) {
  // WG = tile.
  co_await gpu::compute_kernel(
      world_.machine().device(pe),
      {.num_slots = slots_per_pe_,
       .num_wgs = cfg_.shape(world_.n_pes()).num_tiles()},
      tile_cost_, [this, pe](int tile) {
        if (cfg_.functional) tile_to_partial(pe, tile);
      });
}

void BaselineGemvAllReduce::tile_to_partial(PeId pe, int tile) {
  const auto shape = cfg_.shape(world_.n_pes());
  std::vector<float> vals(static_cast<std::size_t>(shape.tile_rows));
  ops::gemv_tile(shape, data_->w[static_cast<std::size_t>(pe)],
                 data_->x[static_cast<std::size_t>(pe)], tile, vals);
  auto& part = partial_[static_cast<std::size_t>(pe)];
  for (int r = shape.tile_begin(tile); r < shape.tile_end(tile); ++r) {
    part[static_cast<std::size_t>(r)] =
        vals[static_cast<std::size_t>(r - shape.tile_begin(tile))];
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
