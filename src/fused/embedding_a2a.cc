#include "fused/embedding_a2a.h"

#include <algorithm>
#include <utility>

#include "framework/op_registry.h"
#include "sim/task.h"

namespace fcc::fused {

EmbeddingA2AData EmbeddingA2AData::random(const EmbeddingA2AConfig& cfg,
                                          shmem::SymArray<float>* out,
                                          std::uint64_t seed) {
  EmbeddingA2AData d;
  d.output = out;
  Rng rng(seed);
  const auto emb = cfg.emb_config();
  const int pes = cfg.map.num_pes;
  for (int pe = 0; pe < pes; ++pe) {
    d.tables.push_back(ops::EmbeddingTables::random(emb, rng));
    d.batches.push_back(
        ops::EmbeddingBatch::uniform(emb, cfg.map.global_batch, rng));
  }
  return d;
}

namespace {

/// Construction-time checks shared by the fused and baseline operators:
/// each rejected value used to abort mid-run or time zero-cost WGs.
void check_config(const EmbeddingA2AConfig& cfg, const shmem::World& world,
                  const EmbeddingA2AData* data) {
  cfg.map.validate();
  FCC_CHECK(cfg.map.num_pes == world.n_pes());
  FCC_CHECK_MSG(cfg.pooling >= 1, "EmbeddingA2AConfig::pooling must be >= 1 "
                                  "(lookups per output vector), got "
                                      << cfg.pooling);
  check_slots_override("EmbeddingA2AConfig::occupancy_slots_override",
                       cfg.occupancy_slots_override);
  if (cfg.functional) {
    FCC_CHECK_MSG(data != nullptr && data->output != nullptr,
                  "functional mode needs EmbeddingA2AData");
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Fused operator
// ---------------------------------------------------------------------------

FusedEmbeddingAllToAll::FusedEmbeddingAllToAll(shmem::World& world,
                                               EmbeddingA2AConfig cfg,
                                               EmbeddingA2AData* data)
    : FusedOp(world), cfg_(std::move(cfg)), data_(data) {
  check_config(cfg_, world_, data_);
  index_ = SliceIndex(cfg_.map);
  // Launch at the lesser of the occupancy limit and the HBM-contention
  // knee: Fig. 13 shows the memory-intensive fused kernel degrades past
  // ~75% occupancy, so the persistent grid is tuned to the knee.
  slots_per_pe_ =
      OccupancyPlan::resolve(
          world_.machine().device(0).spec(), kFusedKernelResources,
          {.override_slots = cfg_.occupancy_slots_override,
           .knee_frac = ops::kFusedEmbeddingCurve.knee_frac})
          .slots;
  // Local outputs and RDMA staging write to HBM; zero-copy remote stores
  // ride the fabric instead (no local write).
  wg_cost_ = {ops::embedding_wg_cost(cfg_.pooling, cfg_.map.dim,
                                     /*local_write=*/true,
                                     ops::kFusedEmbeddingCurve),
              ops::embedding_wg_cost(cfg_.pooling, cfg_.map.dim,
                                     /*local_write=*/false,
                                     ops::kFusedEmbeddingCurve)};
  register_debug_flags("sliceRdy", slice_rdy_);
}

std::size_t FusedEmbeddingAllToAll::slice_flag(PeId src, int slice) const {
  const auto& map = cfg_.map;
  return (static_cast<std::size_t>(src) * map.tables_per_pe +
          static_cast<std::size_t>(map.slice_table(slice))) *
             static_cast<std::size_t>(map.slices_per_dest_per_table()) +
         static_cast<std::size_t>(map.slice_group(slice));
}

sim::Co FusedEmbeddingAllToAll::run() {
  const auto& map = cfg_.map;
  const int pes = map.num_pes;

  // The WG costs' duration tables and the block sequences are built here,
  // once, before any PE body exists: on a sharded machine the bodies read
  // them from several threads.
  if (wg_cost_[0].by_active.empty()) {
    for (gpu::WorkCost& c : wg_cost_) {
      world_.machine().device(0).tabulate(c);
    }
    if (cfg_.policy == gpu::SchedulePolicy::kCommAware) {
      const hw::Topology& topo = world_.machine().topology();
      blocks_.reserve(static_cast<std::size_t>(pes) *
                      static_cast<std::size_t>(pes));
      for (PeId pe = 0; pe < pes; ++pe) {
        const std::vector<PeId> b = map.comm_aware_blocks(
            pe, topo.shift_order(topo.node_of(pe)), topo.gpus_per_node());
        blocks_.insert(blocks_.end(), b.begin(), b.end());
      }
    }
  }
  // Reset per-run state. wg_done_/stage_ rows are written only by each
  // owning PE's WG bodies on its home shard; slice_rdy_ wakes waiters on
  // each PE's home engine (the World form of reset).
  wg_done_.reset(pes, map.num_slices(), map.wgs_per_slice());
  slice_rdy_.reset(world_, static_cast<std::size_t>(map.num_slices()));
  if (cfg_.functional) {
    stage_.assign(static_cast<std::size_t>(pes),
                  std::vector<std::vector<float>>(
                      static_cast<std::size_t>(map.num_slices())));
  }
  // One persistent-kernel launch per PE.
  co_await run_fused([this](PeId pe) { return pe_body(pe); });
}

/// One PE's launch: the KernelRun, and what every slot's steps share.
struct FusedEmbeddingAllToAll::Kernel : gpu::KernelRun {
  Kernel(FusedEmbeddingAllToAll& op, PeId pe, Params params)
      : KernelRun(op.world_.machine().device(pe), params),
        op(op),
        traced(op.world_.machine().config().collect_trace) {}
  FusedEmbeddingAllToAll& op;
  bool traced;
};

/// A slot's record: the logical WG in flight and where its vector goes.
struct FusedEmbeddingAllToAll::Slot : gpu::KernelRun::Slot {
  int lw;  // once the queue drains, the next sliceRdy flag to poll
  SliceIndex::Placement at;
  bool zero_copy;  // the vector is a zero-copy store (zero_copy_to)
  TimeNs t_begin;  // traced runs: the WG's start, for its span
};

sim::Co FusedEmbeddingAllToAll::pe_body(PeId pe) {
  Kernel k(*this, pe,
           {.num_slots = slots_per_pe_, .num_wgs = cfg_.map.num_logical_wgs()});
  k.start(&claim);
  co_await k.wait();
  result_.pe_end[static_cast<std::size_t>(pe)] = k.engine().now();
}

void FusedEmbeddingAllToAll::claim(Slot& s) {
  Kernel& k = static_cast<Kernel&>(*s.run);
  FusedEmbeddingAllToAll& op = k.op;
  const int lw = op.wg_at(k.pe(), k.next(s));
  if (lw < 0) {
    s.lw = s.index;
    poll_slices(&s);
    return;
  }
  s.lw = lw;
  s.at = op.index_.place(lw);
  s.zero_copy = op.zero_copy_to(k.pe(), s.at.dest);
  if (k.traced) s.t_begin = k.engine().now();
  k.device().start_step(op.wg_cost_[s.zero_copy ? 1 : 0], s, &step_end);
}

void FusedEmbeddingAllToAll::step_end(sim::Call* c) {
  Slot& s = static_cast<Slot&>(*c);
  Kernel& k = static_cast<Kernel&>(*s.run);
  k.device().end_step();
  if (s.zero_copy &&
      k.op.world_.issue_then(k.pe(), s.at.dest, shmem::World::IssueKind::kStore,
                             s, &stored)) {
    return;
  }
  stored(c);
}

void FusedEmbeddingAllToAll::stored(sim::Call* c) {
  Slot& s = static_cast<Slot&>(*c);
  Kernel& k = static_cast<Kernel&>(*s.run);
  k.op.post_wg(k.pe(), s.lw, s.at, s.zero_copy);
  if (k.traced) {
    k.op.world_.machine().trace_of(k.pe()).add_span(
        {"wg", "compute", k.pe(), s.index, s.t_begin, k.engine().now()});
  }
  // WG_Done bookkeeping; the last finishing WG of the slice emits it.
  k.device().wait_then(ops::kFusedWgBookkeepingNs, s, &bookkept);
}

void FusedEmbeddingAllToAll::bookkept(sim::Call* c) {
  Slot& s = static_cast<Slot&>(*c);
  Kernel& k = static_cast<Kernel&>(*s.run);
  FusedEmbeddingAllToAll& op = k.op;
  if (!op.wg_done_.mark(k.pe(), s.at.slice, s.at.lane)) {
    claim(s);
    return;
  }
  const PeId dest = s.at.dest;  // the slice's destination too
  if (dest == k.pe()) {
    // Locally consumed slice: flag is a local store.
    op.slice_rdy_->set(k.pe(), op.slice_flag(k.pe(), s.at.slice), 1);
    if (k.traced) {
      op.world_.machine().trace_of(k.pe()).add_instant(
          {"local_slice", "local", k.pe(), s.index, k.engine().now()});
    }
    claim(s);
    return;
  }
  if (s.zero_copy) {
    // Zero-copy scale-up: data already stored per-WG; order the flag
    // behind those stores and set it remotely.
    op.world_.fence_then(k.pe(), s, &zero_copy_fenced);
    return;
  }
  // Staged path: one PUT for the whole slice (RDMA inter-node, blit-style
  // copy intra-node when zero-copy is disabled), fence, sliceRdy flag.
  if (op.world_.issue_then(k.pe(), dest, op.staged_kind(k.pe(), dest), s,
                           &staged_issued)) {
    return;
  }
  staged_issued(c);
}

void FusedEmbeddingAllToAll::zero_copy_fenced(sim::Call* c) {
  Slot& s = static_cast<Slot&>(*c);
  Kernel& k = static_cast<Kernel&>(*s.run);
  if (k.op.world_.issue_then(k.pe(), s.at.dest, shmem::World::IssueKind::kStore,
                             s, &signal_slice)) {
    return;
  }
  signal_slice(c);
}

void FusedEmbeddingAllToAll::staged_issued(sim::Call* c) {
  Slot& s = static_cast<Slot&>(*c);
  Kernel& k = static_cast<Kernel&>(*s.run);
  k.op.post_slice(k.pe(), s.at.slice);
  k.op.world_.fence_then(k.pe(), s, &staged_fenced);
}

void FusedEmbeddingAllToAll::staged_fenced(sim::Call* c) {
  Slot& s = static_cast<Slot&>(*c);
  Kernel& k = static_cast<Kernel&>(*s.run);
  const PeId dest = s.at.dest;
  if (k.op.world_.issue_then(k.pe(), dest, k.op.staged_kind(k.pe(), dest), s,
                             &signal_slice)) {
    return;
  }
  signal_slice(c);
}

void FusedEmbeddingAllToAll::signal_slice(sim::Call* c) {
  Slot& s = static_cast<Slot&>(*c);
  Kernel& k = static_cast<Kernel&>(*s.run);
  FusedEmbeddingAllToAll& op = k.op;
  op.slice_rdy_.signal(op.world_, k.pe(), s.at.dest,
                       op.slice_flag(k.pe(), s.at.slice));
  if (k.traced) {
    op.world_.machine().trace_of(k.pe()).add_instant(
        {"put", "comm", k.pe(), s.index, k.engine().now()});
  }
  claim(s);
}

void FusedEmbeddingAllToAll::poll_slices(sim::Call* c) {
  // Each persistent WG polls a distinct subset of sliceRdy flags before
  // exiting (cheaper than everyone polling everything).
  Slot& s = static_cast<Slot&>(*c);
  Kernel& k = static_cast<Kernel&>(*s.run);
  const auto set = [](int) -> std::uint64_t { return 1; };
  if (!k.op.slice_rdy_->poll_then(k.pe(), s.lw, k.active_slots(),
                                  k.op.cfg_.map.num_slices(), set, s,
                                  &poll_slices)) {
    k.finish(s);
  }
}

bool FusedEmbeddingAllToAll::zero_copy_to(PeId pe, PeId dest) const {
  return cfg_.zero_copy && dest != pe &&
         world_.machine().route_class(pe, dest) == hw::RouteClass::kIntraNode;
}

void FusedEmbeddingAllToAll::post_wg(PeId pe, int lw,
                                     const SliceIndex::Placement& at,
                                     bool zero_copy) {
  const auto& map = cfg_.map;
  const PeId dest = at.dest;
  // Scale-up path: this WG's threads store the vector straight into the
  // destination GPU's output buffer.
  const Bytes store_bytes = static_cast<Bytes>(map.dim) * 4;
  if (!cfg_.functional) {
    if (zero_copy) world_.put(pe, dest, store_bytes);
    return;
  }
  const int t = map.wg_table(lw);
  const int b = map.wg_sample(lw);
  std::vector<float> vec(static_cast<std::size_t>(map.dim));
  ops::pool_reference(cfg_.emb_config(),
                      data_->tables[static_cast<std::size_t>(pe)],
                      data_->batches[static_cast<std::size_t>(pe)], t, b, vec);
  const int lb = b % map.local_batch();
  const int gt = map.global_table(pe, t);
  if (dest == pe) {
    auto out = data_->output->pe(pe);
    for (int c = 0; c < map.dim; ++c) {
      out[map.dest_offset(lb, gt, c)] = vec[static_cast<std::size_t>(c)];
    }
    return;
  }
  if (zero_copy) {
    world_.put(pe, dest, store_bytes,
               [out = data_->output, dest, lb, gt, map, v = std::move(vec)] {
                 auto o = out->pe(dest);
                 for (int c = 0; c < map.dim; ++c) {
                   o[map.dest_offset(lb, gt, c)] =
                       v[static_cast<std::size_t>(c)];
                 }
               });
    return;
  }
  auto& st = stage_[static_cast<std::size_t>(pe)]
                   [static_cast<std::size_t>(at.slice)];
  if (st.empty()) {
    st.resize(static_cast<std::size_t>(map.vectors_per_slice) *
              static_cast<std::size_t>(map.dim));
  }
  const std::size_t lane_off = static_cast<std::size_t>(at.lane) *
                               static_cast<std::size_t>(map.dim);
  std::copy(vec.begin(), vec.end(),
            st.begin() + static_cast<std::ptrdiff_t>(lane_off));
}

void FusedEmbeddingAllToAll::post_slice(PeId pe, int slice) {
  const auto& map = cfg_.map;
  const PeId dest = map.slice_dest(slice);
  std::function<void()> deliver;
  if (cfg_.functional) {
    auto* out = data_->output;
    const auto* st = &stage_[static_cast<std::size_t>(pe)]
                            [static_cast<std::size_t>(slice)];
    const int gt = map.global_table(pe, map.slice_table(slice));
    const int lb0 = map.slice_sample_begin(slice) % map.local_batch();
    deliver = [out, st, dest, gt, lb0, map] {
      auto o = out->pe(dest);
      for (int v = 0; v < map.vectors_per_slice; ++v) {
        for (int c = 0; c < map.dim; ++c) {
          o[map.dest_offset(lb0 + v, gt, c)] =
              (*st)[static_cast<std::size_t>(v) * map.dim +
                    static_cast<std::size_t>(c)];
        }
      }
    };
  }
  world_.put(pe, dest, map.slice_bytes(), std::move(deliver));
}

shmem::World::IssueKind FusedEmbeddingAllToAll::staged_kind(PeId pe,
                                                          PeId dest) const {
  return world_.machine().route_class(pe, dest) == hw::RouteClass::kIntraNode
             ? shmem::World::IssueKind::kStore
             : shmem::World::IssueKind::kRdma;
}

// ---------------------------------------------------------------------------
// Bulk-synchronous baseline
// ---------------------------------------------------------------------------

BaselineEmbeddingAllToAll::BaselineEmbeddingAllToAll(shmem::World& world,
                                                     EmbeddingA2AConfig cfg,
                                                     EmbeddingA2AData* data)
    : BulkSyncOp(world), cfg_(std::move(cfg)), data_(data) {
  check_config(cfg_, world_, data_);
  slots_per_pe_ =
      OccupancyPlan::resolve(world_.machine().device(0).spec(),
                             gpu::KernelResources{},
                             {.override_slots = cfg_.occupancy_slots_override})
          .slots;
  wg_cost_ = ops::embedding_wg_cost(cfg_.pooling, cfg_.map.dim,
                                    /*local_write=*/true, ops::kBaselineCurve);
}

void BaselineEmbeddingAllToAll::pool_to_send(PeId pe, int table, int b) {
  const auto& map = cfg_.map;
  std::vector<float> vec(static_cast<std::size_t>(map.dim));
  ops::pool_reference(cfg_.emb_config(),
                      data_->tables[static_cast<std::size_t>(pe)],
                      data_->batches[static_cast<std::size_t>(pe)], table, b,
                      vec);
  // Send layout: chunk per destination, [t][lb][dim] inside the chunk.
  const PeId d = map.dest_of_sample(b);
  const int lb = b % map.local_batch();
  const std::size_t off =
      static_cast<std::size_t>(d) * chunk_elems() +
      (static_cast<std::size_t>(table) * map.local_batch() +
       static_cast<std::size_t>(lb)) *
          static_cast<std::size_t>(map.dim);
  std::copy(vec.begin(), vec.end(),
            send_[static_cast<std::size_t>(pe)].begin() +
                static_cast<std::ptrdiff_t>(off));
}

std::size_t BaselineEmbeddingAllToAll::chunk_elems() const {
  return static_cast<std::size_t>(cfg_.map.tables_per_pe) *
         static_cast<std::size_t>(cfg_.map.local_batch()) *
         static_cast<std::size_t>(cfg_.map.dim);
}

void BaselineEmbeddingAllToAll::prepare() {
  // Runs in run() before any PE body is spawned (see the fused run()).
  if (wg_cost_.by_active.empty()) {
    world_.machine().device(0).tabulate(wg_cost_);
  }
  if (!cfg_.functional) return;
  const auto pes = static_cast<std::size_t>(cfg_.map.num_pes);
  send_.assign(pes, std::vector<float>(chunk_elems() * pes, 0.0f));
  recv_.assign(pes, std::vector<float>(chunk_elems() * pes, 0.0f));
}

sim::Co BaselineEmbeddingAllToAll::compute(PeId pe, TimeNs t0) {
  // The host issues every per-table launch at t0 without waiting, one
  // issue gap apart, and the GPU runs the kernels in order: a launch's
  // latency shows only where the previous kernel ends before the launch
  // is ready. The host's stream sync is BulkSyncOp's.
  auto& engine = world_.machine().engine_of(pe);
  const TimeNs launch_ns = world_.machine().device(pe).spec().kernel_launch_ns;
  for (int t = 0; t < cfg_.map.tables_per_pe; ++t) {
    co_await sim::delay_until(engine, t0 + launch_ns + t * kHostIssueGapNs);
    // One (PE, table) kernel; WG = global sample.
    co_await gpu::compute_kernel(
        world_.machine().device(pe),
        {.num_slots = slots_per_pe_, .num_wgs = cfg_.map.global_batch},
        wg_cost_, [this, pe, t](int b) {
          if (cfg_.functional) pool_to_send(pe, t, b);
        });
  }
}

sim::Co BaselineEmbeddingAllToAll::collective(ccl::Communicator& comm) {
  const auto& map = cfg_.map;
  const int pes = map.num_pes;
  const std::size_t chunk = chunk_elems();
  ccl::FloatBufs send_bufs, recv_bufs;
  if (cfg_.functional) {
    for (auto& s : send_) send_bufs.per_rank.emplace_back(s);
    for (auto& r : recv_) recv_bufs.per_rank.emplace_back(r);
  }
  co_await comm.all_to_all(static_cast<std::int64_t>(chunk),
                           std::move(send_bufs), std::move(recv_bufs));

  // Functional: scatter the source-major chunks into the interaction layout.
  // (Charged to neither side; the baseline's consumer reads strided, see
  // DESIGN.md fairness note.)
  if (cfg_.functional) {
    for (PeId pe = 0; pe < pes; ++pe) {
      auto out = data_->output->pe(pe);
      const auto& rv = recv_[static_cast<std::size_t>(pe)];
      for (PeId src = 0; src < pes; ++src) {
        for (int t = 0; t < map.tables_per_pe; ++t) {
          for (int lb = 0; lb < map.local_batch(); ++lb) {
            const std::size_t in_off =
                static_cast<std::size_t>(src) * chunk +
                (static_cast<std::size_t>(t) * map.local_batch() +
                 static_cast<std::size_t>(lb)) *
                    static_cast<std::size_t>(map.dim);
            const int gt = map.global_table(src, t);
            for (int c = 0; c < map.dim; ++c) {
              out[map.dest_offset(lb, gt, c)] =
                  rv[in_off + static_cast<std::size_t>(c)];
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Registry entry
// ---------------------------------------------------------------------------

namespace {

const fw::OpRegistrar embedding_a2a_registrar{{
    .name = "fcc::embedding_a2a",
    .make = fw::pair_factory<EmbeddingA2AConfig, EmbeddingA2AData,
                             FusedEmbeddingAllToAll,
                             BaselineEmbeddingAllToAll>(),
    .smoke_spec =
        [] {
          EmbeddingA2AConfig cfg;
          cfg.map.num_pes = fw::kSmokePes;
          cfg.map.tables_per_pe = 4;
          cfg.map.global_batch = 128;
          cfg.map.dim = 64;
          cfg.map.vectors_per_slice = 8;
          cfg.functional = false;
          return fw::make_spec("fcc::embedding_a2a", cfg);
        },
    // Graph rewrite: pooling node (carries the EmbeddingA2AConfig) feeding
    // a bare all_to_all collapses into this op.
    .pattern = {"aten::embedding_bag", "c10d::all_to_all"},
    .shape_key =
        [](const fw::OpSpec& spec) {
          const auto& cfg = fw::spec_config<EmbeddingA2AConfig>(spec);
          return "pes=" + std::to_string(cfg.map.num_pes) +
                 ",tables=" + std::to_string(cfg.map.tables_per_pe) +
                 ",batch=" + std::to_string(cfg.map.global_batch) +
                 ",dim=" + std::to_string(cfg.map.dim) +
                 ",vps=" + std::to_string(cfg.map.vectors_per_slice) +
                 ",pool=" + std::to_string(cfg.pooling);
        },
}};

}  // namespace

}  // namespace fcc::fused
