#include "fused/gemm_a2a.h"

#include <utility>

#include "framework/op_registry.h"
#include "ops/gemv.h"  // random_vector
#include "sim/task.h"

namespace fcc::fused {

GemmA2AData GemmA2AData::random(const GemmA2AConfig& cfg, int num_pes,
                                shmem::SymArray<float>* out,
                                std::uint64_t seed) {
  GemmA2AData d;
  d.out = out;
  Rng rng(seed);
  const auto shape = cfg.shape(num_pes);
  for (int pe = 0; pe < num_pes; ++pe) {
    d.a.push_back(ops::random_vector(
        static_cast<std::size_t>(shape.m) * static_cast<std::size_t>(shape.k),
        rng));
    d.b.push_back(ops::random_vector(
        static_cast<std::size_t>(shape.k) * static_cast<std::size_t>(shape.n),
        rng));
  }
  return d;
}

namespace {

/// Construction-time check of the fields both backends read.
GemmA2AConfig checked(const GemmA2AConfig& cfg, const GemmA2AData* data) {
  check_positive("GemmA2AConfig::rows_per_origin", cfg.rows_per_origin);
  check_positive("GemmA2AConfig::d_model", cfg.d_model);
  check_positive("GemmA2AConfig::d_ff", cfg.d_ff);
  check_positive("GemmA2AConfig::block_m", cfg.block_m);
  check_positive("GemmA2AConfig::block_n", cfg.block_n);
  check_slots_override("GemmA2AConfig::occupancy_slots_override",
                       cfg.occupancy_slots_override);
  if (cfg.functional) {
    FCC_CHECK(data != nullptr && data->out != nullptr);
  }
  return cfg;
}

}  // namespace

// ---------------------------------------------------------------------------
// Fused operator (authored in the tile DSL)
// ---------------------------------------------------------------------------

FusedGemmAllToAll::FusedGemmAllToAll(shmem::World& world, GemmA2AConfig cfg,
                                     GemmA2AData* data)
    : FusedOp(world),
      cfg_(checked(cfg, data)),
      data_(data),
      num_pes_(world.n_pes()),
      shape_(cfg.shape(world.n_pes())) {
  FCC_CHECK_MSG(cfg_.rows_per_origin % cfg_.block_m == 0,
                "block_m must divide rows_per_origin so a tile has exactly "
                "one destination");
  register_debug_flags("arrivals", arrivals_);
}

PeId FusedGemmAllToAll::origin_of_tile(int pid) const {
  return shape_.row_begin(pid) / cfg_.rows_per_origin;
}

sim::Co FusedGemmAllToAll::run() {
  arrivals_.reset(world_, static_cast<std::size_t>(num_pes_));
  if (kernel_ == nullptr) build_kernel();
  co_await run_fused([this](PeId pe) { return pe_driver(pe); });
}

void FusedGemmAllToAll::build_kernel() {
  // --- the fused kernel, authored with the DSL's comm extensions ---
  kernel_ = std::make_unique<triton::TileKernel>("moe_combine_fused", shape_,
                                                 ops::kTritonGemmEfficiency);
  const int R = cfg_.rows_per_origin;
  const int n = cfg_.d_model;
  auto dest_of = [this](const triton::TileKernel::Ctx& ctx) {
    return origin_of_tile(ctx.pid);
  };
  auto write_tile = [this, R, n](const triton::TileKernel::Ctx& ctx,
                                 const std::vector<float>& tile) {
    // Destination chunk layout at origin o: [expert][local_row][col].
    const auto& sh = *ctx.shape;
    const PeId origin = sh.row_begin(ctx.pid) / R;
    auto out = data_->out->pe(origin);
    const int cols = sh.col_end(ctx.pid) - sh.col_begin(ctx.pid);
    for (int r = sh.row_begin(ctx.pid); r < sh.row_end(ctx.pid); ++r) {
      const int local_row = r - origin * R;
      for (int j = 0; j < cols; ++j) {
        out[(static_cast<std::size_t>(ctx.pe) * R +
             static_cast<std::size_t>(local_row)) *
                static_cast<std::size_t>(n) +
            static_cast<std::size_t>(sh.col_begin(ctx.pid) + j)] =
            tile[static_cast<std::size_t>(r - sh.row_begin(ctx.pid)) * cols +
                 static_cast<std::size_t>(j)];
      }
    }
  };
  kernel_->load_a().load_b().dot();
  if (cfg_.functional) {
    kernel_->put_c_remote(dest_of, write_tile);
  } else {
    kernel_->put_c_remote(dest_of, {});
  }
  kernel_->fence();
  kernel_->atomic_add_remote(
      arrivals_.get(), dest_of,
      [](const triton::TileKernel::Ctx& ctx) {
        return static_cast<std::size_t>(ctx.pe);
      });
  kernel_->tabulate(world_.machine().device(0),
                    cfg_.occupancy_slots_override);
}

sim::Co FusedGemmAllToAll::pe_driver(PeId pe) {
  // Expected tiles per source expert: my row block's tile count.
  const std::uint64_t expected =
      static_cast<std::uint64_t>(cfg_.rows_per_origin / cfg_.block_m) *
      static_cast<std::uint64_t>(shape_.tiles_n());
  triton::TileKernel::LaunchConfig lc;
  lc.pe = pe;
  lc.occupancy_slots_override = cfg_.occupancy_slots_override;
  lc.functional = cfg_.functional;
  if (cfg_.functional) {
    lc.a = data_->a[static_cast<std::size_t>(pe)];
    lc.b = data_->b[static_cast<std::size_t>(pe)];
  }
  return launch_awaiting_arrivals(*kernel_, lc, arrivals_,
                                  [expected](PeId) { return expected; });
}

// ---------------------------------------------------------------------------
// Bulk-synchronous baseline
// ---------------------------------------------------------------------------

BaselineGemmAllToAll::BaselineGemmAllToAll(shmem::World& world,
                                           GemmA2AConfig cfg,
                                           GemmA2AData* data)
    : BulkSyncOp(world), cfg_(checked(cfg, data)), data_(data) {}

void BaselineGemmAllToAll::prepare() {
  const auto shape = cfg_.shape(world_.n_pes());
  build_local_tile_gemm("moe_gemm_baseline", shape,
                        cfg_.functional ? &c_ : nullptr);
  if (!cfg_.functional) return;
  c_.assign(static_cast<std::size_t>(world_.n_pes()),
            std::vector<float>(static_cast<std::size_t>(shape.m) *
                                   static_cast<std::size_t>(shape.n),
                               0.0f));
}

sim::Co BaselineGemmAllToAll::compute(PeId pe, TimeNs /*t0*/) {
  if (!cfg_.functional) return local_tile_gemm(pe, {}, {});
  const auto i = static_cast<std::size_t>(pe);
  return local_tile_gemm(pe, data_->a[i], data_->b[i]);
}

sim::Co BaselineGemmAllToAll::collective(ccl::Communicator& comm) {
  // Chunk d of PE e's C (rows [d*R, (d+1)*R)) goes to origin d; recv is
  // source-major, which is exactly the output layout.
  ccl::FloatBufs send, recv;
  if (cfg_.functional) {
    for (auto& c : c_) send.per_rank.emplace_back(c);
    for (PeId pe = 0; pe < world_.n_pes(); ++pe) {
      recv.per_rank.push_back(data_->out->pe(pe));
    }
  }
  co_await comm.all_to_all(
      static_cast<std::int64_t>(cfg_.rows_per_origin) * cfg_.d_model,
      std::move(send), std::move(recv));
}

// ---------------------------------------------------------------------------
// Registry entry
// ---------------------------------------------------------------------------

namespace {

const fw::OpRegistrar gemm_a2a_registrar{{
    .name = "fcc::gemm_a2a",
    .make = fw::pair_factory<GemmA2AConfig, GemmA2AData, FusedGemmAllToAll,
                             BaselineGemmAllToAll>(),
    .smoke_spec =
        [] {
          GemmA2AConfig cfg;
          cfg.rows_per_origin = 256;
          cfg.d_model = 256;
          cfg.d_ff = 512;
          cfg.functional = false;
          return fw::make_spec("fcc::gemm_a2a", cfg);
        },
    // Graph rewrite: expert GEMM (carries the GemmA2AConfig) feeding a bare
    // all_to_all collapses into this op (MoE combine direction).
    .pattern = {"aten::mm", "c10d::all_to_all"},
    .shape_key =
        [](const fw::OpSpec& spec) {
          const auto& cfg = fw::spec_config<GemmA2AConfig>(spec);
          return "r=" + std::to_string(cfg.rows_per_origin) +
                 ",dm=" + std::to_string(cfg.d_model) +
                 ",dff=" + std::to_string(cfg.d_ff) +
                 ",bm=" + std::to_string(cfg.block_m) +
                 ",bn=" + std::to_string(cfg.block_n);
        },
}};

}  // namespace

}  // namespace fcc::fused
