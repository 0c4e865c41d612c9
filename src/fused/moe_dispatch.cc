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

namespace {

/// The routing fields every plan is sized by, checked before any plan is
/// drawn or validated.
void check_routing(const MoeDispatchConfig& cfg, int num_pes) {
  FCC_CHECK(num_pes >= 1);
  check_positive("MoeDispatchConfig::tokens_per_pe", cfg.tokens_per_pe);
  FCC_CHECK_MSG(cfg.top_k >= 1 && cfg.top_k <= num_pes,
                "MoeDispatchConfig::top_k must be in [1, "
                    << num_pes << "] (one expert per PE), got " << cfg.top_k);
}

}  // namespace

std::vector<ops::DispatchPlan> skewed_plans(const MoeDispatchConfig& cfg,
                                            int num_pes) {
  check_routing(cfg, num_pes);
  FCC_CHECK_MSG(cfg.hot_expert_factor >= 1.0,
                "MoeDispatchConfig::hot_expert_factor must be >= 1 (1 is "
                "balanced), got "
                    << cfg.hot_expert_factor);

  const auto experts = static_cast<std::size_t>(num_pes);
  const auto k = static_cast<std::size_t>(cfg.top_k);
  const auto assignments = static_cast<std::size_t>(cfg.assignments());
  std::vector<ops::DispatchPlan> plans;
  plans.reserve(experts);
  // Scratch shared by every source and token: the experts other than 0
  // the token already picked, ascending, the expert picked for each
  // (token, k) assignment, and per-expert fill cursors.
  std::vector<int> taken;
  taken.reserve(k);
  std::vector<int> picks(assignments);
  std::vector<std::int64_t> cursor(experts);
  // total[hot][m]: the weights' sum, added in expert order, when expert 0
  // is (hot = 1) or is not still eligible and m other experts are.
  std::vector<double> total[2];
  for (int hot = 0; hot < 2; ++hot) {
    double sum = hot != 0 ? cfg.hot_expert_factor : 0.0;
    for (std::size_t m = 0; m < experts; ++m) {
      total[hot].push_back(sum);
      sum += 1.0;
    }
  }
  for (int src = 0; src < num_pes; ++src) {
    Rng rng(cfg.routing_seed + 0x9e3779b97f4a7c15ULL *
                                   static_cast<std::uint64_t>(src + 1));
    for (std::size_t t = 0; t < static_cast<std::size_t>(cfg.tokens_per_pe);
         ++t) {
      // Weighted sampling without replacement: expert 0 weighs
      // hot_expert_factor, every other expert 1. A draw r walks the
      // eligible experts in order, subtracting each one's weight, and
      // picks the one that takes r to 0 or below.
      taken.clear();
      int hot = 1;
      for (std::size_t j = 0; j < k; ++j) {
        const std::size_t others = experts - 1 - taken.size();
        double r = rng.next_double() * total[hot][others];
        if (hot != 0) {
          r -= cfg.hot_expert_factor;
          if (r <= 0) {
            picks[t * k + j] = 0;
            hot = 0;
            continue;
          }
        }
        // While r stays positive (and below 2^53), subtracting 1 from it
        // is exact, so the walk stops at the ceil(r)-th other expert still
        // eligible (the first when r is 0), or at the last on a numeric
        // tail.
        auto c = static_cast<std::size_t>(r);  // r >= 0: ceil is c or c + 1
        c += static_cast<double>(c) < r ? 1 : 0;
        int pick = static_cast<int>(std::clamp<std::size_t>(c, 1, others));
        for (const int e : taken) pick += e <= pick ? 1 : 0;
        picks[t * k + j] = pick;
        if (j + 1 < k) {
          taken.insert(std::upper_bound(taken.begin(), taken.end(), pick),
                       pick);
        }
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

DispatchLayout DispatchLayout::build(int num_pes,
                                     const std::vector<std::int64_t>& counts,
                                     int block_m) {
  FCC_CHECK(num_pes >= 1);
  FCC_CHECK(block_m >= 1);
  const auto n = static_cast<std::size_t>(num_pes);
  FCC_CHECK(counts.size() == n * n);
  DispatchLayout l;
  l.num_pes = num_pes;
  l.block_m = block_m;
  l.counts.assign(n, std::vector<std::int64_t>(n, 0));
  l.pad_off.assign(n, std::vector<std::int64_t>(n, 0));
  l.padded_rows.assign(n, 0);
  l.sent_rows.assign(n, 0);
  l.recv_off.assign(n, std::vector<std::int64_t>(n, 0));
  l.recv_rows.assign(n, 0);
  for (std::size_t src = 0; src < n; ++src) {
    std::int64_t row = 0;
    for (std::size_t e = 0; e < n; ++e) {
      const std::int64_t c = counts[src * n + e];
      FCC_CHECK(c >= 0);
      l.counts[src][e] = c;
      l.pad_off[src][e] = row;
      row += (c + block_m - 1) / block_m * block_m;
      l.sent_rows[src] += c;
      l.recv_off[e][src] = l.recv_rows[e];
      l.recv_rows[e] += c;
    }
    l.padded_rows[src] = row;
  }
  return l;
}

DispatchLayout DispatchLayout::build(
    const std::vector<ops::DispatchPlan>& plans, int block_m) {
  const int n = static_cast<int>(plans.size());
  return build(n, ops::a2av_counts(plans, n, /*elems_per_token=*/1), block_m);
}

std::int64_t DispatchLayout::padded(int src, int e) const {
  const std::int64_t c =
      counts[static_cast<std::size_t>(src)][static_cast<std::size_t>(e)];
  return (c + block_m - 1) / block_m * block_m;
}

int DispatchLayout::owner_of_row(int src, std::int64_t row) const {
  // The last segment starting at or before `row`: an empty segment shares
  // its offset with the next one, which wins.
  const auto& off = pad_off[static_cast<std::size_t>(src)];
  const auto next = std::upper_bound(off.begin(), off.end(), row);
  FCC_CHECK_MSG(next != off.begin(),
                "row " << row << " outside every expert segment");
  return static_cast<int>(next - off.begin()) - 1;
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

/// Construction-time check of the config fields both backends read, ahead
/// of the plans and layout built from them.
void check_config(const MoeDispatchConfig& cfg, int num_pes) {
  check_routing(cfg, num_pes);
  check_positive("MoeDispatchConfig::d_model", cfg.d_model);
  check_positive("MoeDispatchConfig::d_out", cfg.d_out);
  check_positive("MoeDispatchConfig::block_m", cfg.block_m);
  check_positive("MoeDispatchConfig::block_n", cfg.block_n);
  check_slots_override("MoeDispatchConfig::occupancy_slots_override",
                       cfg.occupancy_slots_override);
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
                           const MoeDispatchData* data, int num_pes) {
  FCC_CHECK_MSG(data != nullptr && data->recv != nullptr,
                "functional MoE dispatch needs data with a recv buffer");
  FCC_CHECK(static_cast<int>(data->tokens.size()) == num_pes);
  for (const auto& t : data->tokens) {
    FCC_CHECK_MSG(t.size() == static_cast<std::size_t>(cfg.tokens_per_pe) *
                                  static_cast<std::size_t>(cfg.d_model),
                  "token buffer size != tokens_per_pe * d_model");
  }
  FCC_CHECK(data->w.size() == static_cast<std::size_t>(cfg.d_model) *
                                  static_cast<std::size_t>(cfg.d_out));
}

/// The MoE dispatch front-end: the plans' counts as the layout, and in
/// functional mode each source's routed tokens gathered in plan order as
/// its packed A panel, against the shared weight.
RoutedGemm routed(const MoeDispatchConfig& cfg, const MoeDispatchData* data,
                  int num_pes) {
  check_config(cfg, num_pes);
  auto plans = resolve_plans(cfg, data, num_pes);
  RoutedGemm r;
  r.k = cfg.d_model;
  r.n = cfg.d_out;
  r.block_n = cfg.block_n;
  r.occupancy_slots_override = cfg.occupancy_slots_override;
  r.functional = cfg.functional;
  r.layout = DispatchLayout::build(plans, cfg.block_m);
  if (!cfg.functional) return r;
  check_functional_data(cfg, data, num_pes);
  // plan.order lists each expert's tokens in turn: packed row i is token
  // order[i].
  r.packed_a = [data, plans = std::move(plans),
                dm = static_cast<std::size_t>(cfg.d_model)](PeId src) {
    const auto& order = plans[static_cast<std::size_t>(src)].order;
    const auto& tokens = data->tokens[static_cast<std::size_t>(src)];
    std::vector<float> a(order.size() * dm);
    for (std::size_t i = 0; i < order.size(); ++i) {
      std::copy_n(tokens.begin() + static_cast<std::ptrdiff_t>(
                                       static_cast<std::size_t>(order[i]) * dm),
                  dm, a.begin() + static_cast<std::ptrdiff_t>(i * dm));
    }
    return a;
  };
  r.b = [data](PeId) { return std::span<const float>(data->w); };
  r.recv = data->recv;
  return r;
}

/// The kernel each source launches, for panel heights `rows` ([src]): one
/// per distinct height, named `name`, whose statements `program` adds.
std::vector<triton::TileKernel*> kernels_by_height(
    const RoutedGemm& r, const std::vector<std::int64_t>& rows,
    const char* name, std::vector<std::unique_ptr<triton::TileKernel>>& kernels,
    const std::function<void(triton::TileKernel&)>& program) {
  std::vector<triton::TileKernel*> of;
  for (const std::int64_t m : rows) {
    auto it = std::find_if(kernels.begin(), kernels.end(),
                           [m](const auto& k) { return k->shape().m == m; });
    if (it == kernels.end()) {
      kernels.push_back(std::make_unique<triton::TileKernel>(
          name,
          ops::GemmShape{.m = static_cast<int>(m),
                         .n = r.n,
                         .k = r.k,
                         .block_m = r.layout.block_m,
                         .block_n = r.block_n},
          ops::kTritonGemmEfficiency));
      program(*kernels.back());
      it = kernels.end() - 1;
    }
    of.push_back(it->get());
  }
  return of;
}

/// Copies tile `ctx.pid`'s first `rows` rows into the row-major, `n`-wide
/// `out`, starting at row `first`, in the tile's columns.
void copy_rows(const triton::TileKernel::Ctx& ctx,
               const std::vector<float>& tile, int rows, std::span<float> out,
               std::int64_t first, int n) {
  const auto& sh = *ctx.shape;
  const auto cols = static_cast<std::size_t>(sh.col_end(ctx.pid) -
                                             sh.col_begin(ctx.pid));
  for (int i = 0; i < rows; ++i) {
    std::copy_n(tile.begin() + static_cast<std::ptrdiff_t>(
                                   static_cast<std::size_t>(i) * cols),
                cols,
                out.begin() + static_cast<std::ptrdiff_t>(
                                  static_cast<std::size_t>(first + i) *
                                      static_cast<std::size_t>(n) +
                                  static_cast<std::size_t>(
                                      sh.col_begin(ctx.pid))));
  }
}

/// Source `src`'s packed A panel (`k` wide) with each expert's segment
/// moved to its padded offset; pad rows are zero.
std::vector<float> pad_panel(const DispatchLayout& l, int src, int k,
                             std::vector<float> packed) {
  const auto s = static_cast<std::size_t>(src);
  if (l.padded_rows[s] == l.sent_rows[s]) return packed;  // all aligned
  const auto width = static_cast<std::size_t>(k);
  std::vector<float> a(static_cast<std::size_t>(l.padded_rows[s]) * width,
                       0.0f);
  auto from = packed.begin();
  for (std::size_t e = 0; e < l.counts[s].size(); ++e) {
    const auto len = static_cast<std::ptrdiff_t>(
        static_cast<std::size_t>(l.counts[s][e]) * width);
    std::copy(from, from + len,
              a.begin() + static_cast<std::ptrdiff_t>(
                              static_cast<std::size_t>(l.pad_off[s][e]) *
                              width));
    from += len;
  }
  return a;
}

/// Functional mode: the recv buffer must hold the hottest expert's rows.
RoutedGemm checked(RoutedGemm r) {
  FCC_CHECK_MSG(!r.functional || (r.recv != nullptr &&
                                  r.recv->size() >=
                                      r.layout.recv_capacity(r.n)),
                "recv SymArray smaller than the hottest expert's footprint");
  return r;
}

}  // namespace

// ---------------------------------------------------------------------------
// Fused operator (authored in the tile DSL)
// ---------------------------------------------------------------------------

FusedMoeDispatch::FusedMoeDispatch(shmem::World& world, MoeDispatchConfig cfg,
                                   MoeDispatchData* data)
    : FusedMoeDispatch(world, routed(cfg, data, world.n_pes())) {}

FusedMoeDispatch::FusedMoeDispatch(shmem::World& world, RoutedGemm routed)
    : FusedOp(world), routed_(checked(std::move(routed))) {
  register_debug_flags("arrivals", arrivals_);
}

sim::Co FusedMoeDispatch::run() {
  const int pes = world_.n_pes();
  arrivals_.reset(world_, static_cast<std::size_t>(pes));
  // Kernels are authored once: arrivals_ keeps one flag array across runs,
  // so their pointer to it stays valid. The launching PE is the source: it
  // picks each tile's expert and arrival counter.
  if (kernels_.empty()) {
    auto dest_of = [&l = routed_.layout](const triton::TileKernel::Ctx& ctx) {
      return static_cast<PeId>(
          l.owner_of_row(ctx.pe, ctx.shape->row_begin(ctx.pid)));
    };
    triton::TileKernel::WriteFn write_tile;
    if (routed_.functional) {
      // Only the segment's real rows leave the tile; pad rows stay behind.
      write_tile = [this, &l = routed_.layout](
                       const triton::TileKernel::Ctx& ctx,
                       const std::vector<float>& tile) {
        const auto src = static_cast<std::size_t>(ctx.pe);
        const int row0 = ctx.shape->row_begin(ctx.pid);
        const auto e = static_cast<std::size_t>(l.owner_of_row(ctx.pe, row0));
        const std::int64_t local = row0 - l.pad_off[src][e];
        const auto rows = static_cast<int>(std::min<std::int64_t>(
            ctx.shape->row_end(ctx.pid) - row0, l.counts[src][e] - local));
        copy_rows(ctx, tile, rows, routed_.recv->pe(static_cast<PeId>(e)),
                  l.recv_off[e][src] + local, routed_.n);
      };
    }
    kernel_of_ = kernels_by_height(
        routed_, routed_.layout.padded_rows, "routed_gemm_fused", kernels_,
        [&](triton::TileKernel& k) {
          k.load_a().load_b().dot();
          k.put_c_remote(dest_of, write_tile);
          k.fence();
          k.atomic_add_remote(arrivals_.get(), dest_of,
                              [](const triton::TileKernel::Ctx& ctx) {
                                return static_cast<std::size_t>(ctx.pe);
                              });
          k.tabulate(world_.machine().device(0));
        });
  }
  if (routed_.functional) {
    a_.assign(static_cast<std::size_t>(pes), {});
    for (int src = 0; src < pes; ++src) {
      a_[static_cast<std::size_t>(src)] = pad_panel(
          routed_.layout, src, routed_.k, routed_.packed_a(src));
    }
  }
  co_await run_fused([this](PeId pe) { return pe_driver(pe); });
}

sim::Co FusedMoeDispatch::pe_driver(PeId pe) {
  const int tiles_n = (routed_.n + routed_.block_n - 1) / routed_.block_n;
  triton::TileKernel::LaunchConfig lc;
  lc.world = &world_;
  lc.pe = pe;
  lc.occupancy_slots_override = routed_.occupancy_slots_override;
  lc.functional = routed_.functional;
  if (routed_.functional) {
    lc.a = a_[static_cast<std::size_t>(pe)];
    lc.b = routed_.b(pe);
  }
  // Each spawned slot waits for the sources slot, slot + active, ... (a
  // grid smaller than num_pes orphans no source's counter). A source with
  // an empty segment expects zero tiles and passes.
  lc.wait_flags = arrivals_.get();
  lc.wait_count = world_.n_pes();
  lc.wait_threshold = [this, pe, tiles_n](int src) {
    return static_cast<std::uint64_t>(
        routed_.layout.expected_tiles(src, pe, tiles_n));
  };
  co_await kernel_of_[static_cast<std::size_t>(pe)]->launch(lc);
  result_.pe_end[static_cast<std::size_t>(pe)] =
      world_.machine().engine_of(pe).now();
}

// ---------------------------------------------------------------------------
// Bulk-synchronous baseline (GEMM, sync, all_to_all_v)
// ---------------------------------------------------------------------------

BaselineMoeDispatch::BaselineMoeDispatch(shmem::World& world,
                                         MoeDispatchConfig cfg,
                                         MoeDispatchData* data)
    : BaselineMoeDispatch(world, routed(cfg, data, world.n_pes())) {}

BaselineMoeDispatch::BaselineMoeDispatch(shmem::World& world,
                                         RoutedGemm routed)
    : BulkSyncOp(world), routed_(checked(std::move(routed))) {}

void BaselineMoeDispatch::prepare() {
  const auto& l = routed_.layout;
  if (kernels_.empty()) {
    // A plain GEMM over the packed rows, already destination-major for the
    // collective; PE p writes C row-major into c_[p].
    triton::TileKernel::WriteFn write_local;
    if (routed_.functional) {
      write_local = [this](const triton::TileKernel::Ctx& ctx,
                           const std::vector<float>& tile) {
        const int row0 = ctx.shape->row_begin(ctx.pid);
        copy_rows(ctx, tile, ctx.shape->row_end(ctx.pid) - row0,
                  c_[static_cast<std::size_t>(ctx.pe)], row0, routed_.n);
      };
    }
    kernel_of_ = kernels_by_height(routed_, l.sent_rows, "routed_gemm_local",
                                   kernels_, [&](triton::TileKernel& k) {
                                     k.load_a().load_b().dot();
                                     k.store_c_local(write_local);
                                     k.tabulate(world_.machine().device(0));
                                   });
  }
  if (!routed_.functional) return;
  a_.clear();
  c_.clear();
  for (int src = 0; src < l.num_pes; ++src) {
    a_.push_back(routed_.packed_a(src));
    c_.emplace_back(static_cast<std::size_t>(
                        l.sent_rows[static_cast<std::size_t>(src)]) *
                        static_cast<std::size_t>(routed_.n),
                    0.0f);
  }
}

sim::Co BaselineMoeDispatch::compute(PeId pe, TimeNs /*t0*/) {
  const auto i = static_cast<std::size_t>(pe);
  triton::TileKernel::LaunchConfig lc;
  lc.world = &world_;
  lc.pe = pe;
  lc.functional = routed_.functional;
  if (routed_.functional) {
    lc.a = a_[i];
    lc.b = routed_.b(pe);
  }
  co_await kernel_of_[i]->launch(lc);
}

sim::Co BaselineMoeDispatch::collective(ccl::Communicator& comm) {
  // The layout's counts drive the All-to-All; expert e's recv buffer ends
  // up source-major, exactly the layout the expert GEMM consumes.
  const auto& l = routed_.layout;
  std::vector<std::int64_t> counts;
  for (const auto& row : l.counts) {
    for (const std::int64_t c : row) counts.push_back(c * routed_.n);
  }
  ccl::FloatBufs send, recv;
  if (routed_.functional) {
    for (auto& c : c_) send.per_rank.emplace_back(c);
    for (PeId pe = 0; pe < l.num_pes; ++pe) {
      recv.per_rank.push_back(routed_.recv->pe(pe));
    }
  }
  co_await comm.all_to_all_v(counts, std::move(send), std::move(recv));
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
             << ",bm=" << cfg.block_m << ",bn=" << cfg.block_n
             << ",hot=" << cfg.hot_expert_factor
             << ",seed=" << cfg.routing_seed;
          return os.str();
        },
}};

}  // namespace

}  // namespace fcc::fused
