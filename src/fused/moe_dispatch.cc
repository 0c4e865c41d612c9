#include "fused/moe_dispatch.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "framework/op_registry.h"
#include "ops/gemv.h"  // random_vector
#include "sim/task.h"

namespace fcc::fused {

// ---------------------------------------------------------------------------
// Routing synthesis and layout
// ---------------------------------------------------------------------------

std::vector<ops::DispatchPlan> skewed_plans(const MoeDispatchConfig& cfg,
                                            int num_pes) {
  FCC_CHECK(num_pes >= 1);
  FCC_CHECK(cfg.tokens_per_pe >= 1);
  FCC_CHECK(cfg.top_k >= 1 && cfg.top_k <= num_pes);
  FCC_CHECK(cfg.hot_expert_factor >= 1.0);

  const auto experts = static_cast<std::size_t>(num_pes);
  const auto k = static_cast<std::size_t>(cfg.top_k);
  const auto assignments = static_cast<std::size_t>(cfg.assignments());
  std::vector<ops::DispatchPlan> plans;
  plans.reserve(experts);
  // Scratch shared by every source and token: sampling weights, the expert
  // picked for each (token, k) assignment, and per-expert fill cursors.
  std::vector<double> weight(experts);
  std::vector<int> picks(assignments);
  std::vector<std::int64_t> cursor(experts);
  for (int src = 0; src < num_pes; ++src) {
    Rng rng(cfg.routing_seed + 0x9e3779b97f4a7c15ULL *
                                   static_cast<std::uint64_t>(src + 1));
    for (std::size_t t = 0; t < static_cast<std::size_t>(cfg.tokens_per_pe);
         ++t) {
      // Weighted sampling without replacement: expert 0 is the hot one.
      std::fill(weight.begin(), weight.end(), 1.0);
      weight[0] = cfg.hot_expert_factor;
      for (std::size_t j = 0; j < k; ++j) {
        double total = 0;
        for (double w : weight) total += w;
        double r = rng.next_double() * total;
        int pick = 0;
        for (int e = 0; e < num_pes; ++e) {
          if (weight[static_cast<std::size_t>(e)] <= 0) continue;
          r -= weight[static_cast<std::size_t>(e)];
          if (r <= 0) {
            pick = e;
            break;
          }
          pick = e;  // numeric tail: last eligible expert
        }
        weight[static_cast<std::size_t>(pick)] = 0;
        picks[t * k + j] = pick;
      }
    }
    // Counting sort of the picks by expert; stable, so each expert's
    // segment lists its tokens in ascending order.
    ops::DispatchPlan p;
    p.counts.assign(experts, 0);
    p.offsets.assign(experts, 0);
    p.order.resize(assignments);
    for (int e : picks) ++p.counts[static_cast<std::size_t>(e)];
    std::int64_t off = 0;
    for (std::size_t e = 0; e < experts; ++e) {
      p.offsets[e] = off;
      off += p.counts[e];
    }
    cursor = p.offsets;
    for (std::size_t a = 0; a < assignments; ++a) {
      p.order[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(picks[a])]++)] =
          static_cast<int>(a / k);
    }
    plans.push_back(std::move(p));
  }
  return plans;
}

DispatchLayout DispatchLayout::build(
    const std::vector<ops::DispatchPlan>& plans, int block_m) {
  FCC_CHECK(!plans.empty());
  FCC_CHECK(block_m >= 1);
  DispatchLayout l;
  l.num_pes = static_cast<int>(plans.size());
  l.block_m = block_m;
  const auto n = static_cast<std::size_t>(l.num_pes);
  l.counts.assign(n, {});
  l.pad_off.assign(n, {});
  l.padded_rows.assign(n, 0);
  l.recv_off.assign(n, std::vector<std::int64_t>(n, 0));
  l.recv_rows.assign(n, 0);
  for (int src = 0; src < l.num_pes; ++src) {
    const auto& p = plans[static_cast<std::size_t>(src)];
    FCC_CHECK_MSG(static_cast<int>(p.counts.size()) == l.num_pes,
                  "expert-parallel dispatch needs one expert per PE");
    l.counts[static_cast<std::size_t>(src)] = p.counts;
    auto& off = l.pad_off[static_cast<std::size_t>(src)];
    off.assign(n, 0);
    std::int64_t row = 0;
    for (int e = 0; e < l.num_pes; ++e) {
      const std::int64_t c = p.counts[static_cast<std::size_t>(e)];
      FCC_CHECK(c >= 0);
      off[static_cast<std::size_t>(e)] = row;
      row += (c + block_m - 1) / block_m * block_m;
      l.recv_off[static_cast<std::size_t>(e)][static_cast<std::size_t>(src)] =
          l.recv_rows[static_cast<std::size_t>(e)];
      l.recv_rows[static_cast<std::size_t>(e)] += c;
    }
    l.padded_rows[static_cast<std::size_t>(src)] = row;
  }
  return l;
}

std::int64_t DispatchLayout::padded(int src, int e) const {
  const std::int64_t c =
      counts[static_cast<std::size_t>(src)][static_cast<std::size_t>(e)];
  return (c + block_m - 1) / block_m * block_m;
}

int DispatchLayout::owner_of_row(int src, std::int64_t row) const {
  const auto& off = pad_off[static_cast<std::size_t>(src)];
  for (int e = num_pes - 1; e >= 0; --e) {
    if (row >= off[static_cast<std::size_t>(e)] && padded(src, e) > 0) {
      return e;
    }
  }
  FCC_CHECK_MSG(false, "row " << row << " outside every expert segment");
  return 0;
}

std::int64_t DispatchLayout::expected_tiles(int src, int e,
                                            int tiles_n) const {
  return padded(src, e) / block_m * tiles_n;
}

std::size_t DispatchLayout::recv_capacity(int d_out) const {
  std::int64_t max_rows = 0;
  for (std::int64_t r : recv_rows) max_rows = std::max(max_rows, r);
  return static_cast<std::size_t>(max_rows) * static_cast<std::size_t>(d_out);
}

MoeDispatchData MoeDispatchData::random(const MoeDispatchConfig& cfg,
                                        int num_pes,
                                        shmem::SymArray<float>* recv,
                                        std::uint64_t seed) {
  MoeDispatchData d;
  d.plans = skewed_plans(cfg, num_pes);
  d.recv = recv;
  Rng rng(seed);
  for (int pe = 0; pe < num_pes; ++pe) {
    d.tokens.push_back(ops::random_vector(
        static_cast<std::size_t>(cfg.tokens_per_pe) *
            static_cast<std::size_t>(cfg.d_model),
        rng));
  }
  d.w = ops::random_vector(static_cast<std::size_t>(cfg.d_model) *
                               static_cast<std::size_t>(cfg.d_out),
                           rng);
  return d;
}

namespace {

/// Construction-time check of the shape fields both backends read, ahead
/// of the plans and layout built from them.
MoeDispatchConfig checked(const MoeDispatchConfig& cfg) {
  check_positive("MoeDispatchConfig::d_model", cfg.d_model);
  check_positive("MoeDispatchConfig::d_out", cfg.d_out);
  check_positive("MoeDispatchConfig::block_m", cfg.block_m);
  check_positive("MoeDispatchConfig::block_n", cfg.block_n);
  check_alu_efficiency("MoeDispatchConfig::alu_efficiency",
                       cfg.alu_efficiency);
  check_slots_override("MoeDispatchConfig::occupancy_slots_override",
                       cfg.occupancy_slots_override);
  return cfg;
}

/// Plans from the spec'd data when present, else synthesized from the
/// config's skew knobs (timing-only smoke runs carry no data).
///
/// User-supplied plans are validated against the config up front: both
/// variants size buffers from cfg.assignments() and index tokens through
/// plan.order, so an inconsistent plan (e.g. built from a different batch
/// size) would otherwise write out of bounds.
std::vector<ops::DispatchPlan> resolve_plans(const MoeDispatchConfig& cfg,
                                             const MoeDispatchData* data,
                                             int num_pes) {
  if (data == nullptr || data->plans.empty()) {
    return skewed_plans(cfg, num_pes);
  }
  FCC_CHECK_MSG(static_cast<int>(data->plans.size()) == num_pes,
                "need one DispatchPlan per source PE");
  for (const auto& p : data->plans) {
    FCC_CHECK_MSG(static_cast<int>(p.counts.size()) == num_pes &&
                      static_cast<int>(p.offsets.size()) == num_pes,
                  "expert-parallel dispatch needs one expert per PE");
    std::int64_t total = 0;
    for (int e = 0; e < num_pes; ++e) {
      FCC_CHECK(p.counts[static_cast<std::size_t>(e)] >= 0);
      FCC_CHECK_MSG(p.offsets[static_cast<std::size_t>(e)] == total,
                    "DispatchPlan offsets are not prefix sums of counts");
      total += p.counts[static_cast<std::size_t>(e)];
    }
    FCC_CHECK_MSG(total == cfg.assignments() &&
                      p.order.size() == static_cast<std::size_t>(total),
                  "DispatchPlan rows != tokens_per_pe * top_k");
    for (int tok : p.order) {
      FCC_CHECK_MSG(tok >= 0 && tok < cfg.tokens_per_pe,
                    "DispatchPlan routes a token outside the local batch");
    }
  }
  return data->plans;
}

void check_functional_data(const MoeDispatchConfig& cfg,
                           const MoeDispatchData* data,
                           const DispatchLayout& layout) {
  FCC_CHECK_MSG(data != nullptr && data->recv != nullptr,
                "functional MoE dispatch needs data with a recv buffer");
  FCC_CHECK(static_cast<int>(data->tokens.size()) == layout.num_pes);
  for (const auto& t : data->tokens) {
    FCC_CHECK_MSG(t.size() == static_cast<std::size_t>(cfg.tokens_per_pe) *
                                  static_cast<std::size_t>(cfg.d_model),
                  "token buffer size != tokens_per_pe * d_model");
  }
  FCC_CHECK(data->w.size() == static_cast<std::size_t>(cfg.d_model) *
                                  static_cast<std::size_t>(cfg.d_out));
  FCC_CHECK_MSG(data->recv->size() >= layout.recv_capacity(cfg.d_out),
                "recv SymArray smaller than the hottest expert's footprint");
}

/// A-panel gather in plan order: routed row i of expert e's segment is
/// tokens[order[offsets[e] + i]]. The fused variant pads each segment to a
/// block_m multiple (zero rows); the baseline packs them tight.
std::vector<float> gather_a(const MoeDispatchConfig& cfg,
                            const ops::DispatchPlan& plan,
                            const std::vector<float>& tokens, int num_pes,
                            bool padded, const DispatchLayout& layout,
                            int src) {
  const auto dm = static_cast<std::size_t>(cfg.d_model);
  const std::int64_t rows =
      padded ? layout.padded_rows[static_cast<std::size_t>(src)]
             : cfg.assignments();
  std::vector<float> a(static_cast<std::size_t>(rows) * dm, 0.0f);
  for (int e = 0; e < num_pes; ++e) {
    const std::int64_t base =
        padded ? layout.pad_off[static_cast<std::size_t>(src)]
                               [static_cast<std::size_t>(e)]
               : plan.offsets[static_cast<std::size_t>(e)];
    for (std::int64_t i = 0; i < plan.counts[static_cast<std::size_t>(e)];
         ++i) {
      const int tok = plan.order[static_cast<std::size_t>(
          plan.offsets[static_cast<std::size_t>(e)] + i)];
      const float* row = &tokens[static_cast<std::size_t>(tok) * dm];
      std::copy(row, row + dm,
                a.begin() + static_cast<std::ptrdiff_t>(
                                static_cast<std::size_t>(base + i) * dm));
    }
  }
  return a;
}

}  // namespace

// ---------------------------------------------------------------------------
// Fused operator (authored in the tile DSL, per-source shapes)
// ---------------------------------------------------------------------------

FusedMoeDispatch::FusedMoeDispatch(shmem::World& world, MoeDispatchConfig cfg,
                                   MoeDispatchData* data)
    : FusedOp(world),
      cfg_(checked(cfg)),
      data_(data),
      num_pes_(world.n_pes()),
      plans_(resolve_plans(cfg_, data, world.n_pes())),
      layout_(DispatchLayout::build(plans_, cfg_.block_m)) {
  if (cfg_.functional) check_functional_data(cfg_, data_, layout_);
  register_debug_flags("arrivals", arrivals_);
}

sim::Co FusedMoeDispatch::run() {
  arrivals_.reset(world_, static_cast<std::size_t>(num_pes_));
  if (kernels_.empty()) build_kernels();
  if (cfg_.functional) {
    a_.assign(static_cast<std::size_t>(num_pes_), {});
    for (int src = 0; src < num_pes_; ++src) {
      a_[static_cast<std::size_t>(src)] = gather_a(
          cfg_, plans_[static_cast<std::size_t>(src)],
          data_->tokens[static_cast<std::size_t>(src)], num_pes_,
          /*padded=*/true, layout_, src);
    }
  }
  co_await run_fused([this](PeId pe) { return pe_driver(pe); });
}

void FusedMoeDispatch::build_kernels() {
  // Per-source kernels: shapes differ (padded routed rows), so each source
  // authors its own instance of the dispatch kernel.
  for (int src = 0; src < num_pes_; ++src) {
    ops::GemmShape shape;
    shape.m =
        static_cast<int>(layout_.padded_rows[static_cast<std::size_t>(src)]);
    shape.n = cfg_.d_out;
    shape.k = cfg_.d_model;
    shape.block_m = cfg_.block_m;
    shape.block_n = cfg_.block_n;

    auto kernel = std::make_unique<triton::TileKernel>(
        "moe_dispatch_fused", shape, cfg_.alu_efficiency);
    auto dest_of = [this, src](const triton::TileKernel::Ctx& ctx) {
      return static_cast<PeId>(
          layout_.owner_of_row(src, ctx.shape->row_begin(ctx.pid)));
    };
    triton::TileKernel::WriteFn write_tile;
    if (cfg_.functional) {
      const int d_out = cfg_.d_out;
      write_tile = [this, src, d_out](const triton::TileKernel::Ctx& ctx,
                                      const std::vector<float>& tile) {
        const auto& sh = *ctx.shape;
        const int e = layout_.owner_of_row(src, sh.row_begin(ctx.pid));
        const std::int64_t seg0 =
            layout_.pad_off[static_cast<std::size_t>(src)]
                           [static_cast<std::size_t>(e)];
        const std::int64_t real =
            layout_.counts[static_cast<std::size_t>(src)]
                          [static_cast<std::size_t>(e)];
        const std::int64_t base =
            layout_.recv_off[static_cast<std::size_t>(e)]
                            [static_cast<std::size_t>(src)];
        auto out = data_->recv->pe(e);
        const int cols = sh.col_end(ctx.pid) - sh.col_begin(ctx.pid);
        for (int r = sh.row_begin(ctx.pid); r < sh.row_end(ctx.pid); ++r) {
          const std::int64_t local = r - seg0;
          if (local >= real) break;  // pad rows never leave the tile
          for (int j = 0; j < cols; ++j) {
            out[static_cast<std::size_t>(base + local) *
                    static_cast<std::size_t>(d_out) +
                static_cast<std::size_t>(sh.col_begin(ctx.pid) + j)] =
                tile[static_cast<std::size_t>(r - sh.row_begin(ctx.pid)) *
                         static_cast<std::size_t>(cols) +
                     static_cast<std::size_t>(j)];
          }
        }
      };
    }
    kernel->load_a().load_b().dot();
    kernel->put_c_remote(dest_of, std::move(write_tile));
    kernel->fence();
    kernel->atomic_add_remote(
        arrivals_.get(), dest_of,
        [src](const triton::TileKernel::Ctx&) {
          return static_cast<std::size_t>(src);
        });
    kernel->tabulate(world_.machine().device(0),
                     cfg_.occupancy_slots_override);
    kernels_.push_back(std::move(kernel));
  }
}

sim::Co FusedMoeDispatch::pe_driver(PeId pe) {
  const int tiles_n = (cfg_.d_out + cfg_.block_n - 1) / cfg_.block_n;
  triton::TileKernel::LaunchConfig lc;
  lc.pe = pe;
  lc.occupancy_slots_override = cfg_.occupancy_slots_override;
  lc.functional = cfg_.functional;
  if (cfg_.functional) {
    lc.a = a_[static_cast<std::size_t>(pe)];
    lc.b = data_->w;
  }
  // Sources with an empty (or all-pad) segment expect zero and pass.
  return launch_awaiting_arrivals(
      *kernels_[static_cast<std::size_t>(pe)], lc, arrivals_,
      [layout = &layout_, pe, tiles_n](PeId src) {
        return static_cast<std::uint64_t>(
            layout->expected_tiles(src, pe, tiles_n));
      });
}

// ---------------------------------------------------------------------------
// Bulk-synchronous baseline (GEMM, sync, all_to_all_v)
// ---------------------------------------------------------------------------

BaselineMoeDispatch::BaselineMoeDispatch(shmem::World& world,
                                         MoeDispatchConfig cfg,
                                         MoeDispatchData* data)
    : BulkSyncOp(world),
      cfg_(checked(cfg)),
      data_(data),
      num_pes_(world.n_pes()),
      plans_(resolve_plans(cfg_, data, world.n_pes())),
      layout_(DispatchLayout::build(plans_, cfg_.block_m)) {
  if (cfg_.functional) check_functional_data(cfg_, data_, layout_);
}

void BaselineMoeDispatch::prepare() {
  // Plain GEMM per source over the unpadded routed rows, in plan order —
  // already destination-major for the collective.
  build_local_tile_gemm("moe_dispatch_gemm_baseline",
                        {.m = static_cast<int>(cfg_.assignments()),
                         .n = cfg_.d_out,
                         .k = cfg_.d_model,
                         .block_m = cfg_.block_m,
                         .block_n = cfg_.block_n},
                        cfg_.alu_efficiency, cfg_.functional ? &c_ : nullptr);
  if (!cfg_.functional) return;
  a_.clear();
  c_.assign(static_cast<std::size_t>(num_pes_),
            std::vector<float>(static_cast<std::size_t>(cfg_.assignments()) *
                                   static_cast<std::size_t>(cfg_.d_out),
                               0.0f));
  for (int src = 0; src < num_pes_; ++src) {
    a_.push_back(gather_a(cfg_, plans_[static_cast<std::size_t>(src)],
                          data_->tokens[static_cast<std::size_t>(src)],
                          num_pes_, /*padded=*/false, layout_, src));
  }
}

sim::Co BaselineMoeDispatch::compute(PeId pe, TimeNs /*t0*/) {
  if (!cfg_.functional) return local_tile_gemm(pe, {}, {});
  const auto i = static_cast<std::size_t>(pe);
  return local_tile_gemm(pe, a_[i], data_->w);
}

sim::Co BaselineMoeDispatch::collective(ccl::Communicator& comm) {
  // The routed counts drive the uneven All-to-All; expert e's recv buffer
  // ends up source-major, exactly the layout the expert GEMM consumes.
  ccl::FloatBufs send, recv;
  if (cfg_.functional) {
    for (auto& c : c_) send.per_rank.emplace_back(c);
    for (PeId pe = 0; pe < num_pes_; ++pe) {
      recv.per_rank.push_back(data_->recv->pe(pe));
    }
  }
  co_await comm.all_to_all_v(
      ops::a2av_counts(plans_, num_pes_, cfg_.d_out), std::move(send),
      std::move(recv));
}

// ---------------------------------------------------------------------------
// Registry entry
// ---------------------------------------------------------------------------

namespace {

const fw::OpRegistrar moe_dispatch_registrar{{
    .name = "fcc::moe_dispatch",
    .make = fw::pair_factory<MoeDispatchConfig, MoeDispatchData,
                             FusedMoeDispatch, BaselineMoeDispatch>(),
    .smoke_spec =
        [] {
          MoeDispatchConfig cfg;
          cfg.tokens_per_pe = 512;
          cfg.d_model = 512;
          cfg.d_out = 512;
          cfg.hot_expert_factor = 4.0;
          cfg.functional = false;
          return fw::make_spec("fcc::moe_dispatch", cfg);
        },
    // Graph rewrite: routed GEMM (carries the MoeDispatchConfig) feeding a
    // bare uneven-splits all_to_all_single collapses into this op.
    .pattern = {"aten::mm", "c10d::all_to_all_single"},
    .shape_key =
        [](const fw::OpSpec& spec) {
          const auto& cfg = fw::spec_config<MoeDispatchConfig>(spec);
          std::ostringstream os;
          os << "t=" << cfg.tokens_per_pe << ",dm=" << cfg.d_model
             << ",do=" << cfg.d_out << ",k=" << cfg.top_k
             << ",hot=" << cfg.hot_expert_factor
             << ",seed=" << cfg.routing_seed;
          return os.str();
        },
}};

}  // namespace

}  // namespace fcc::fused
