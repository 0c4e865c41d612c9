#include "fused/gemm_a2a.h"

#include "framework/op_registry.h"
#include "ops/gemv.h"  // random_vector

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

/// The uniform layout (every count rows_per_origin) and, in functional
/// mode, each expert's A and B as its panels, after a construction-time
/// check of the fields both backends read.
RoutedGemm routed(const GemmA2AConfig& cfg, const GemmA2AData* data,
                  int num_pes) {
  check_positive("GemmA2AConfig::rows_per_origin", cfg.rows_per_origin);
  check_positive("GemmA2AConfig::d_model", cfg.d_model);
  check_positive("GemmA2AConfig::d_ff", cfg.d_ff);
  check_positive("GemmA2AConfig::block_m", cfg.block_m);
  check_positive("GemmA2AConfig::block_n", cfg.block_n);
  check_slots_override("GemmA2AConfig::occupancy_slots_override",
                       cfg.occupancy_slots_override);
  const auto n = static_cast<std::size_t>(num_pes);
  RoutedGemm r;
  r.k = cfg.d_ff;
  r.n = cfg.d_model;
  r.block_n = cfg.block_n;
  r.occupancy_slots_override = cfg.occupancy_slots_override;
  r.functional = cfg.functional;
  r.layout = DispatchLayout::build(
      num_pes, std::vector<std::int64_t>(n * n, cfg.rows_per_origin),
      cfg.block_m);
  if (!cfg.functional) return r;
  FCC_CHECK(data != nullptr && data->out != nullptr);
  r.packed_a = [data](PeId src) {
    return data->a[static_cast<std::size_t>(src)];
  };
  r.b = [data](PeId src) {
    return std::span<const float>(data->b[static_cast<std::size_t>(src)]);
  };
  r.recv = data->out;
  return r;
}

}  // namespace

FusedGemmAllToAll::FusedGemmAllToAll(shmem::World& world, GemmA2AConfig cfg,
                                     GemmA2AData* data)
    : FusedMoeDispatch(world, routed(cfg, data, world.n_pes())) {}

BaselineGemmAllToAll::BaselineGemmAllToAll(shmem::World& world,
                                           GemmA2AConfig cfg,
                                           GemmA2AData* data)
    : BaselineMoeDispatch(world, routed(cfg, data, world.n_pes())) {}

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
