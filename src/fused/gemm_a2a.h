// Fused GEMM + All-to-All (MoE expert combine, Sec. III-B last paragraph)
// and its bulk-synchronous baseline.
//
// Expert-parallel MoE: each PE hosts one expert. After dispatch, expert e
// holds `rows_per_origin` activation rows from every origin GPU (grouped by
// origin). The expert's second FFN GEMM produces C (m x d_model) whose row
// block o belongs to origin o — the combine All-to-All ships each block
// home. That is MoE dispatch with every count equal to rows_per_origin, so
// both variants are the routed GEMM of fused/moe_dispatch.h under a uniform
// layout: as soon as a C tile finishes, the fused kernel's threads store it
// into the origin's output buffer (zero-copy, no reduction) and bump the
// origin's arrival counter.
#pragma once

#include <vector>

#include "common/rng.h"
#include "fused/moe_dispatch.h"
#include "ops/cost_model.h"
#include "ops/gemm.h"
#include "shmem/sym_array.h"
#include "shmem/world.h"

namespace fcc::fused {

struct GemmA2AConfig {
  int rows_per_origin = 1024;  // R: rows this expert holds per origin GPU
  int d_model = 1024;          // GEMM n
  int d_ff = 4096;             // GEMM k (expert hidden dim)
  int block_m = ops::kGemmBlockM;
  int block_n = ops::kGemmBlockN;
  bool functional = false;
  int occupancy_slots_override = 0;

  ops::GemmShape shape(int num_pes) const {
    ops::GemmShape s;
    s.m = num_pes * rows_per_origin;
    s.n = d_model;
    s.k = d_ff;
    s.block_m = block_m;
    s.block_n = block_n;
    return s;
  }
  /// Output elements per PE: R rows x d_model from each expert.
  std::size_t out_elems(int num_pes) const {
    return static_cast<std::size_t>(num_pes) *
           static_cast<std::size_t>(rows_per_origin) *
           static_cast<std::size_t>(d_model);
  }
};

struct GemmA2AData {
  std::vector<std::vector<float>> a;  // [pe][m * k] expert input activations
  std::vector<std::vector<float>> b;  // [pe][k * n] expert weights
  shmem::SymArray<float>* out = nullptr;  // [pe][N * R * d_model]

  static GemmA2AData random(const GemmA2AConfig& cfg, int num_pes,
                            shmem::SymArray<float>* out, std::uint64_t seed);
};

class FusedGemmAllToAll final : public FusedMoeDispatch {
 public:
  FusedGemmAllToAll(shmem::World& world, GemmA2AConfig cfg,
                    GemmA2AData* data);

  const char* name() const override { return "fused_gemm_a2a"; }
};

class BaselineGemmAllToAll final : public BaselineMoeDispatch {
 public:
  BaselineGemmAllToAll(shmem::World& world, GemmA2AConfig cfg,
                       GemmA2AData* data);

  const char* name() const override { return "baseline_gemm_a2a"; }
};

}  // namespace fcc::fused
