// Routed GEMM + All-to-All: the fused MoE dispatch (paper Fig. 4
// "dispatch" path) and its bulk-synchronous baseline, the one operator pair
// behind both MoE operators.
//
// Expert-parallel MoE, one expert per PE: every source GPU multiplies a
// packed A panel (its routed rows, grouped by destination expert) by its B
// panel and ships expert e's rows of the product to PE e. A DispatchLayout
// holds the traffic matrix, the rows each source sends each expert. MoE
// dispatch reads it from the per-source ops::DispatchPlan: skewed,
// irregular, possibly with empty segments. GEMM + All-to-All
// (fused/gemm_a2a.h) is the same operator with every count equal, the
// paper's equal-load combine.
//
// Fused path: tile kernels authored in the Triton-analog DSL. A source's A
// panel pads each expert's segment up to a block_m multiple so every output
// tile has exactly one destination expert. As a tile finishes, its threads
// PUT the real rows straight into the owning expert's recv buffer (an
// all_to_all_v-style remote write at tile granularity — pad rows ride along
// as block-granularity waste) and bump the expert's per-source arrival
// counter; persistent WGs drain their task loop, then poll a distinct
// source's counter before exiting. Hot experts simply own more tiles. A
// tile's destination and counter come from the launching PE, so sources
// with equal padded panel heights share one kernel.
//
// Baseline path: per-source plain GEMM over the packed rows, host sync, then
// ccl::Communicator::all_to_all_v with the layout's counts — communication
// starts only after the slowest source's GEMM.
//
// Both variants assume the counts matrix is already known everywhere (the
// metadata exchange every uneven All-to-All performs ahead of the payload;
// its cost is inside the collective's software overhead and, for the fused
// path, the routing step that precedes the launch).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "ccl/communicator.h"
#include "common/rng.h"
#include "fused/op_runtime.h"
#include "ops/cost_model.h"
#include "ops/gemm.h"
#include "ops/moe_routing.h"
#include "shmem/sym_array.h"
#include "shmem/world.h"
#include "triton/tile_lang.h"

namespace fcc::fused {

struct MoeDispatchConfig {
  int tokens_per_pe = 1024;  // local tokens per source GPU
  int d_model = 1024;        // GEMM k (token activation width)
  int d_out = 1024;          // GEMM n (projected row width shipped to experts)
  int top_k = 2;             // experts per token (paper evaluates top-2)
  int block_m = ops::kGemmBlockM;
  int block_n = ops::kGemmBlockN;
  bool functional = false;
  int occupancy_slots_override = 0;
  /// Synthetic-routing knobs, used when no MoeDispatchData::plans are
  /// provided: expert 0 is drawn ~hot_expert_factor times more often than
  /// the rest (1.0 = balanced). Benches sweep this for the skew study.
  double hot_expert_factor = 1.0;
  std::uint64_t routing_seed = 1234;

  /// Routed rows per source (each token appears once per selected expert).
  std::int64_t assignments() const {
    return static_cast<std::int64_t>(tokens_per_pe) * top_k;
  }
};

/// Deterministic synthetic routing with a controllable hot expert: every
/// token picks `top_k` distinct experts, expert 0 weighted by
/// `hot_expert_factor`. Returns one DispatchPlan per source GPU (experts ==
/// `num_pes`, one per PE).
std::vector<ops::DispatchPlan> skewed_plans(const MoeDispatchConfig& cfg,
                                            int num_pes);

/// Row bookkeeping of a routed GEMM, shared by both variants and by tests:
/// padded send-side segments (fused tiles need block_m-aligned expert
/// boundaries) and exact recv-side offsets (source-major, matching
/// ccl::Communicator::all_to_all_v).
struct DispatchLayout {
  int num_pes = 0;
  int block_m = 0;
  std::vector<std::vector<std::int64_t>> counts;   // [src][e] real rows
  std::vector<std::vector<std::int64_t>> pad_off;  // [src][e] padded row off
  std::vector<std::int64_t> padded_rows;           // [src] padded GEMM m
  std::vector<std::int64_t> sent_rows;             // [src] real rows sent
  std::vector<std::vector<std::int64_t>> recv_off; // [e][src] recv row off
  std::vector<std::int64_t> recv_rows;             // [e] total rows received

  /// From the flattened traffic matrix: counts[src * num_pes + e] rows go
  /// from source src to expert e (all_to_all_v's convention, in rows).
  static DispatchLayout build(int num_pes,
                              const std::vector<std::int64_t>& counts,
                              int block_m);
  /// From one dispatch plan per source (one expert per PE).
  static DispatchLayout build(const std::vector<ops::DispatchPlan>& plans,
                              int block_m);

  /// Padded size of source `src`'s segment for expert `e`.
  std::int64_t padded(int src, int e) const;
  /// Expert owning padded row `row` of source `src`'s A panel (rows past
  /// the panel map to the last expert).
  int owner_of_row(int src, std::int64_t row) const;
  /// Output tiles source `src` sends expert `e` (tiles_n = column tiles).
  std::int64_t expected_tiles(int src, int e, int tiles_n) const;
  /// Largest per-expert recv footprint in elements — the symmetric recv
  /// buffer size (SymArray allocates the same span on every PE).
  std::size_t recv_capacity(int d_out) const;
};

/// Functional-mode inputs/outputs; timing-only runs may pass nullptr data
/// (plans are then synthesized from the config's skew knobs).
struct MoeDispatchData {
  std::vector<ops::DispatchPlan> plans;    // [src]
  std::vector<std::vector<float>> tokens;  // [src][tokens_per_pe * d_model]
  std::vector<float> w;                    // shared [d_model * d_out]
  shmem::SymArray<float>* recv = nullptr;  // [pe][>= layout.recv_capacity]

  /// Synthetic skewed plans (per cfg knobs) plus random tokens/weights.
  /// `recv` must be sized >= DispatchLayout::recv_capacity for the plans —
  /// build plans first with skewed_plans() and pass the same cfg.
  static MoeDispatchData random(const MoeDispatchConfig& cfg, int num_pes,
                                shmem::SymArray<float>* recv,
                                std::uint64_t seed);
};

/// The routed GEMM an operator pair runs: source s multiplies its packed A
/// panel (layout.sent_rows[s] x k, each expert's rows in turn) by its B
/// panel (k x n) and ships expert e's rows of the product to PE e, where
/// they start at row layout.recv_off[e][s] of the recv buffer.
struct RoutedGemm {
  int k = 0;  // A panel width
  int n = 0;  // row width shipped to the experts
  int block_n = 0;  // tile columns; tile rows are layout.block_m
  int occupancy_slots_override = 0;
  bool functional = false;
  DispatchLayout layout;
  /// Functional hooks, read on every run: source s's packed A panel and
  /// its B panel, and the recv buffer.
  std::function<std::vector<float>(PeId)> packed_a;
  std::function<std::span<const float>(PeId)> b;
  shmem::SymArray<float>* recv = nullptr;
};

class FusedMoeDispatch : public FusedOp {
 public:
  FusedMoeDispatch(shmem::World& world, MoeDispatchConfig cfg,
                   MoeDispatchData* data);

  const char* name() const override { return "fused_moe_dispatch"; }

  sim::Co run() final;

 protected:
  /// The routed core, for front-ends with their own layout.
  FusedMoeDispatch(shmem::World& world, RoutedGemm routed);

 private:
  sim::Co pe_driver(PeId pe);

  RoutedGemm routed_;
  FlagSet arrivals_;  // [expert_pe][src] tile counters
  std::vector<std::unique_ptr<triton::TileKernel>> kernels_;  // per height
  std::vector<triton::TileKernel*> kernel_of_;  // [src]
  std::vector<std::vector<float>> a_;  // [src] padded A (functional)
};

class BaselineMoeDispatch : public BulkSyncOp {
 public:
  BaselineMoeDispatch(shmem::World& world, MoeDispatchConfig cfg,
                      MoeDispatchData* data);

  const char* name() const override { return "baseline_moe_dispatch"; }

 protected:
  /// The routed core, for front-ends with their own layout.
  BaselineMoeDispatch(shmem::World& world, RoutedGemm routed);

 private:
  void prepare() override;
  sim::Co compute(PeId pe, TimeNs t0) override;
  sim::Co collective(ccl::Communicator& comm) override;

  RoutedGemm routed_;
  std::vector<std::unique_ptr<triton::TileKernel>> kernels_;  // per height
  std::vector<triton::TileKernel*> kernel_of_;  // [src]
  std::vector<std::vector<float>> a_;  // [src] packed A (functional)
  std::vector<std::vector<float>> c_;  // [src] staged GEMM output
};

}  // namespace fcc::fused
