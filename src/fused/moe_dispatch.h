// Fused MoE dispatch (routed All-to-All-v, paper Fig. 4 "dispatch" path)
// and its bulk-synchronous baseline.
//
// Expert-parallel MoE with data-dependent traffic: each source GPU's
// ops::DispatchPlan routes its local tokens to top-k experts (one expert
// per PE), then the producer GEMM projects the routed rows and
// ships them. Unlike fused::FusedGemmAllToAll — whose combine assumes the
// paper's equal-load split, one fixed-size chunk per peer — the dispatch
// traffic matrix is the per-(source, expert) counts of a DispatchPlan:
// skewed, irregular, possibly with empty segments.
//
// Fused path: per-source tile kernel authored in the Triton-analog DSL.
// The source's A panel is the routed rows gathered in plan order, each
// expert's segment padded up to a block_m multiple so every output tile has
// exactly one destination expert. As a tile finishes, its threads PUT the
// real rows straight into the owning expert's recv buffer (an
// all_to_all_v-style remote write at tile granularity — pad rows ride along
// as block-granularity waste) and bump the expert's per-source arrival
// counter; persistent WGs drain their task loop, then poll a distinct
// source's counter before exiting. Hot experts simply own more tiles.
//
// Baseline path: per-source plain GEMM over the unpadded routed rows, host
// sync, then ccl::Communicator::all_to_all_v with the plan's counts —
// communication starts only after the slowest source's GEMM.
//
// Both variants assume the counts matrix is already known everywhere (the
// metadata exchange every uneven All-to-All performs ahead of the payload;
// its cost is inside the collective's software overhead and, for the fused
// path, the routing step that precedes the launch).
#pragma once

#include <cstdint>
#include <memory>
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
  double alu_efficiency = ops::kTritonGemmEfficiency;
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

/// Row bookkeeping derived from the plans, shared by both variants and by
/// tests: padded send-side segments (fused tiles need block_m-aligned
/// expert boundaries) and exact recv-side offsets (source-major, matching
/// ccl::Communicator::all_to_all_v).
struct DispatchLayout {
  int num_pes = 0;
  int block_m = 0;
  std::vector<std::vector<std::int64_t>> counts;   // [src][e] real rows
  std::vector<std::vector<std::int64_t>> pad_off;  // [src][e] padded row off
  std::vector<std::int64_t> padded_rows;           // [src] padded GEMM m
  std::vector<std::vector<std::int64_t>> recv_off; // [e][src] recv row off
  std::vector<std::int64_t> recv_rows;             // [e] total rows received

  static DispatchLayout build(const std::vector<ops::DispatchPlan>& plans,
                              int block_m);

  /// Padded size of source `src`'s segment for expert `e`.
  std::int64_t padded(int src, int e) const;
  /// Expert owning padded row `row` of source `src`'s A panel.
  int owner_of_row(int src, std::int64_t row) const;
  /// Output tiles source `src` sends expert `e` (tiles_n = column tiles).
  std::int64_t expected_tiles(int src, int e, int tiles_n) const;
  /// Largest per-expert recv footprint in elements — the symmetric recv
  /// buffer size (SymArray allocates the same span on every PE).
  /// (The flattened all_to_all_v element counts come straight from
  /// ops::a2av_counts — one home for that convention.)
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

class FusedMoeDispatch final : public FusedOp {
 public:
  FusedMoeDispatch(shmem::World& world, MoeDispatchConfig cfg,
                   MoeDispatchData* data);

  const char* name() const override { return "fused_moe_dispatch"; }

  sim::Co run() override;

 private:
  sim::Co pe_driver(PeId pe);
  /// Authors every source's kernel and tabulates its costs (first run()
  /// only: arrivals_ keeps one flag array across runs, so the kernels'
  /// pointer to it stays valid).
  void build_kernels();

  MoeDispatchConfig cfg_;
  MoeDispatchData* data_;
  int num_pes_;
  std::vector<ops::DispatchPlan> plans_;  // data's plans or synthesized
  DispatchLayout layout_;
  FlagSet arrivals_;  // [expert_pe][src] tile counters
  std::vector<std::unique_ptr<triton::TileKernel>> kernels_;  // [src]
  std::vector<std::vector<float>> a_;  // [src] gathered+padded A (functional)
};

class BaselineMoeDispatch final : public BulkSyncOp {
 public:
  BaselineMoeDispatch(shmem::World& world, MoeDispatchConfig cfg,
                      MoeDispatchData* data);

  const char* name() const override { return "baseline_moe_dispatch"; }

 private:
  void prepare() override;
  sim::Co compute(PeId pe, TimeNs t0) override;
  sim::Co collective(ccl::Communicator& comm) override;

  MoeDispatchConfig cfg_;
  MoeDispatchData* data_;
  int num_pes_;
  std::vector<ops::DispatchPlan> plans_;
  DispatchLayout layout_;
  std::vector<std::vector<float>> a_;  // [src] gathered unpadded A
  std::vector<std::vector<float>> c_;  // [src] staged GEMM output (plan order)
};

}  // namespace fcc::fused
