// Analytic cost models for the built-in fused operators.
//
// Each model predicts one op's fused and baseline durations from the
// ops/cost_model.h workgroup formulas evaluated at aggregate device level:
// compute time is max(HBM streaming, ALU) over the whole problem, the
// baseline adds its kernel-boundary overheads (launch + sync + the ccl
// software floor) and the collective's serialized wire time, and the fused
// path overlaps compute with communication (max instead of sum) at the
// cost of in-kernel bookkeeping. Occupancy curves, slot contention, and
// skew-tail effects are deliberately left out — the calibration table
// (plan/calibration.cc) corrects the residual against measured anchors.
// find_op_model looks the models up by registry name.
#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "ccl/communicator.h"
#include "fused/embedding_a2a.h"
#include "fused/gemm_a2a.h"
#include "fused/gemv_allreduce.h"
#include "fused/moe_dispatch.h"
#include "ops/cost_model.h"
#include "plan/cost_scorer.h"

namespace fcc::plan {
namespace {

constexpr double kSwOverheadNs =
    static_cast<double>(ccl::Communicator::kSwOverheadNs);

double launch_ns(const CostEnv& env) {
  return static_cast<double>(env.machine.gpu.kernel_launch_ns);
}
double sync_ns(const CostEnv& env) {
  return static_cast<double>(env.machine.gpu.stream_sync_ns);
}

/// Baseline kernel-boundary tax: launch the compute kernel, synchronize
/// the stream, then pay the collective library's software floor.
double baseline_boundary_ns(const CostEnv& env) {
  return launch_ns(env) + sync_ns(env) + kSwOverheadNs;
}

bool hierarchy_eligible(const CostEnv& env) {
  return env.machine.num_nodes > 1 && env.machine.gpus_per_node > 1;
}

/// Fraction of a symmetric peer-exchange that crosses the node boundary.
double inter_fraction(const CostEnv& env) {
  const int p = env.num_pes();
  if (!env.multi_node() || p <= 1) return 0.0;
  const int g = env.machine.gpus_per_node;
  // Of the P-1 peers, P-g live on other nodes.
  return static_cast<double>(p - g) / static_cast<double>(p - 1);
}

// ---------------------------------------------------------------------------
// fcc::gemv_allreduce
// ---------------------------------------------------------------------------

double gemv_compute_ns(const fused::GemvAllReduceConfig& cfg,
                       const CostEnv& env) {
  const int p = env.num_pes();
  const double k = static_cast<double>(cfg.k_local(p));
  const double m = static_cast<double>(cfg.m);
  return env.device_ns(m * k * 4.0 + m * 4.0, 2.0 * m * k);
}

double gemv_allreduce_wire_ns(const fused::GemvAllReduceConfig& cfg,
                              const CostEnv& env, ccl::AllReduceAlgo algo) {
  const int p = env.num_pes();
  const double m = static_cast<double>(cfg.m);
  const double frac = static_cast<double>(p - 1) / static_cast<double>(p);
  const double inter = inter_fraction(env);
  if (algo == ccl::AllReduceAlgo::kAuto) {
    // ccl runs the cheapest algorithm; so does this estimate.
    return std::min(
        {gemv_allreduce_wire_ns(cfg, env, ccl::AllReduceAlgo::kTwoPhaseDirect),
         gemv_allreduce_wire_ns(cfg, env, ccl::AllReduceAlgo::kRing),
         gemv_allreduce_wire_ns(cfg, env, ccl::AllReduceAlgo::kHierarchical)});
  }
  switch (algo) {
    case ccl::AllReduceAlgo::kTwoPhaseDirect:
      // Reduce-scatter + all-gather: each port moves (P-1)/P of the vector
      // per phase, plus the owner's local reduction through HBM.
      return 2.0 * env.wire_ns(m * 4.0 * frac, inter) +
             env.device_ns(m * 4.0, m);
    case ccl::AllReduceAlgo::kRing: {
      // 2(P-1) steps of m/P elements; every step pays a transfer latency.
      const double step_bytes = m * 4.0 / static_cast<double>(p);
      return 2.0 * static_cast<double>(p - 1) *
                 env.wire_ns(step_bytes, inter) +
             env.device_ns(m * 4.0, m);
    }
    case ccl::AllReduceAlgo::kHierarchical: {
      if (!hierarchy_eligible(env)) {
        // Explicitly selecting the hierarchical algorithm on an ineligible
        // span is a hard error in ccl — make it unselectable.
        return 1e30;
      }
      const int g = env.machine.gpus_per_node;
      const int nn = env.machine.num_nodes;
      const double gfrac =
          static_cast<double>(g - 1) / static_cast<double>(g);
      // Intra-node RS + AG over g members (scale-up only)…
      const double intra = 2.0 * env.wire_ns(m * 4.0 * gfrac, 0.0);
      // …with an inter-node ring per lane on m/g elements (NIC only).
      const double lane = m * 4.0 / static_cast<double>(g);
      const double nic_bw = env.machine.ib.wire_bytes_per_ns *
                            (env.machine.topology.kind ==
                                     hw::TopologySpec::Kind::kMultiRail
                                 ? std::max(1, env.machine.topology.nic_rails)
                                 : 1);
      const double inter_ring =
          2.0 * static_cast<double>(nn - 1) *
          (lane / static_cast<double>(nn) / nic_bw +
           static_cast<double>(env.machine.ib.wire_latency_ns));
      return intra + inter_ring + env.device_ns(m * 4.0, m);
    }
    case ccl::AllReduceAlgo::kAuto:
      break;  // priced above
  }
  return 1e30;
}

const OpCostModel gemv_allreduce_model{
    .estimate =
        [](const fw::OpSpec& spec, const CostEnv& env) {
          const auto& cfg =
              fw::spec_config<fused::GemvAllReduceConfig>(spec);
          CostEstimate est;
          const double compute = gemv_compute_ns(cfg, env);
          const double wire =
              gemv_allreduce_wire_ns(cfg, env, cfg.allreduce_algo);
          est.baseline_ns = compute + baseline_boundary_ns(env) + wire;
          // Fused: tiles stream into peers while later tiles compute;
          // the reduction phase's wire time is what can't hide.
          const double exposed = env.wire_ns(
              static_cast<double>(cfg.m) * 4.0 /
                  static_cast<double>(env.num_pes()),
              inter_fraction(env));
          est.fused_ns = std::max(compute, wire * 0.5) + launch_ns(env) +
                         exposed + 2.0 * env.scaleup_latency_ns();
          est.valid = true;
          return est;
        },
    .work =
        [](const fw::OpSpec& spec, const CostEnv&) {
          const auto& cfg =
              fw::spec_config<fused::GemvAllReduceConfig>(spec);
          return static_cast<double>(cfg.m) *
                 static_cast<double>(cfg.k_global);
        },
    .allreduce_candidates = {ccl::AllReduceAlgo::kTwoPhaseDirect,
                             ccl::AllReduceAlgo::kRing,
                             ccl::AllReduceAlgo::kHierarchical},
    .allreduce_elems =
        [](const fw::OpSpec& spec) {
          return static_cast<std::int64_t>(
              fw::spec_config<fused::GemvAllReduceConfig>(spec).m);
        },
    .allreduce_algo =
        [](const fw::OpSpec& spec) {
          return fw::spec_config<fused::GemvAllReduceConfig>(spec)
              .allreduce_algo;
        },
    .set_allreduce_algo =
        [](fw::OpSpec& spec, ccl::AllReduceAlgo algo) {
          auto cfg = fw::spec_config<fused::GemvAllReduceConfig>(spec);
          cfg.allreduce_algo = algo;
          spec.config = cfg;
        },
};

// ---------------------------------------------------------------------------
// fcc::moe_dispatch
// ---------------------------------------------------------------------------

double moe_gemm_ns(const fused::MoeDispatchConfig& cfg, const CostEnv& env) {
  const double rows = static_cast<double>(cfg.assignments());
  const double tiles =
      std::ceil(rows / cfg.block_m) *
      std::ceil(static_cast<double>(cfg.d_out) / cfg.block_n);
  const double hbm =
      tiles *
      (static_cast<double>(cfg.block_m) * cfg.d_model +
       static_cast<double>(cfg.d_model) * cfg.block_n +
       static_cast<double>(cfg.block_m) * cfg.block_n) *
      4.0;
  const double flops = 2.0 * rows * cfg.d_out * cfg.d_model;
  return env.device_ns(hbm, flops, ops::kTritonGemmEfficiency);
}

double moe_a2a_ns(const fused::MoeDispatchConfig& cfg, const CostEnv& env) {
  const int p = env.num_pes();
  const double rows = static_cast<double>(cfg.assignments());
  // Hot-expert skew concentrates traffic on one port: expert 0 is drawn
  // hot_expert_factor times more often, so the hottest port receives
  // p*hot/(hot + p - 1) times the balanced share.
  const double hot = std::max(1.0, cfg.hot_expert_factor);
  const double hot_mult =
      static_cast<double>(p) * hot / (hot + static_cast<double>(p - 1));
  const double bytes = rows * cfg.d_out * 4.0 *
                       static_cast<double>(p - 1) / static_cast<double>(p) *
                       hot_mult;
  return env.wire_ns(bytes, inter_fraction(env));
}

const OpCostModel moe_dispatch_model{
    .estimate =
        [](const fw::OpSpec& spec, const CostEnv& env) {
          const auto& cfg = fw::spec_config<fused::MoeDispatchConfig>(spec);
          CostEstimate est;
          const double gemm = moe_gemm_ns(cfg, env);
          const double a2a = moe_a2a_ns(cfg, env);
          est.baseline_ns = gemm + baseline_boundary_ns(env) + a2a;
          // Fused: finished tiles PUT while the GEMM continues, but the
          // persistent kernel's bookkeeping taxes every tile and small
          // problems can't bury the collective's latency tail — which
          // is exactly the measured T=512 crossover.
          est.fused_ns = std::max(gemm, a2a) + launch_ns(env) +
                         0.25 * std::min(gemm, a2a) +
                         2.0 * env.scaleup_latency_ns();
          est.valid = true;
          return est;
        },
    .work =
        [](const fw::OpSpec& spec, const CostEnv&) {
          const auto& cfg = fw::spec_config<fused::MoeDispatchConfig>(spec);
          return static_cast<double>(cfg.assignments()) *
                 static_cast<double>(cfg.d_model) *
                 static_cast<double>(cfg.d_out);
        },
};

// ---------------------------------------------------------------------------
// fcc::gemm_a2a
// ---------------------------------------------------------------------------

const OpCostModel gemm_a2a_model{
    .estimate =
        [](const fw::OpSpec& spec, const CostEnv& env) {
          const auto& cfg = fw::spec_config<fused::GemmA2AConfig>(spec);
          CostEstimate est;
          const int p = env.num_pes();
          const double m = static_cast<double>(p) * cfg.rows_per_origin;
          // Each origin's rows pad to whole tiles, as MoE dispatch's do.
          const double tiles =
              static_cast<double>(p) *
              std::ceil(static_cast<double>(cfg.rows_per_origin) /
                        cfg.block_m) *
              std::ceil(static_cast<double>(cfg.d_model) / cfg.block_n);
          const double hbm =
              tiles *
              (static_cast<double>(cfg.block_m) * cfg.d_ff +
               static_cast<double>(cfg.d_ff) * cfg.block_n +
               static_cast<double>(cfg.block_m) * cfg.block_n) *
              4.0;
          const double flops = 2.0 * m * cfg.d_model * cfg.d_ff;
          const double gemm =
              env.device_ns(hbm, flops, ops::kTritonGemmEfficiency);
          const double bytes = m * cfg.d_model * 4.0 *
                               static_cast<double>(p - 1) /
                               static_cast<double>(p);
          const double a2a = env.wire_ns(bytes, inter_fraction(env));
          est.baseline_ns = gemm + baseline_boundary_ns(env) + a2a;
          est.fused_ns = std::max(gemm, a2a) + launch_ns(env) +
                         0.1 * std::min(gemm, a2a) +
                         2.0 * env.scaleup_latency_ns();
          est.valid = true;
          return est;
        },
    .work =
        [](const fw::OpSpec& spec, const CostEnv& env) {
          const auto& cfg = fw::spec_config<fused::GemmA2AConfig>(spec);
          return static_cast<double>(env.num_pes()) *
                 static_cast<double>(cfg.rows_per_origin) *
                 static_cast<double>(cfg.d_model) *
                 static_cast<double>(cfg.d_ff);
        },
};

// ---------------------------------------------------------------------------
// fcc::embedding_a2a
// ---------------------------------------------------------------------------

const OpCostModel embedding_a2a_model{
    .estimate =
        [](const fw::OpSpec& spec, const CostEnv& env) {
          const auto& cfg =
              fw::spec_config<fused::EmbeddingA2AConfig>(spec);
          CostEstimate est;
          const int p = std::max(1, cfg.map.num_pes);
          // Pooled lookups this PE produces: its tables x the global
          // batch; each reads `pooling` rows of `dim` plus indices.
          const double lookups =
              static_cast<double>(cfg.map.tables_per_pe) *
              static_cast<double>(cfg.map.global_batch);
          const double per_lookup_bytes =
              static_cast<double>(cfg.pooling) * cfg.map.dim * 4.0 +
              static_cast<double>(cfg.pooling) * 4.0 +
              static_cast<double>(cfg.map.dim) * 4.0;
          const double flops =
              lookups * static_cast<double>(cfg.pooling) * cfg.map.dim;
          const double pool =
              env.device_ns(lookups * per_lookup_bytes, flops);
          const double bytes = lookups * cfg.map.dim * 4.0 *
                               static_cast<double>(p - 1) /
                               static_cast<double>(p);
          const double a2a = env.wire_ns(bytes, inter_fraction(env));
          est.baseline_ns = pool + baseline_boundary_ns(env) + a2a;
          // The fused persistent kernel pays the contention-curve tax
          // (kFusedEmbeddingCurve's 40% degradation past the knee) on
          // its HBM stream but hides the exchange entirely.
          const double fused_pool = env.device_ns(
              lookups * per_lookup_bytes * 1.15, flops);
          est.fused_ns = std::max(fused_pool, a2a) + launch_ns(env) +
                         2.0 * env.scaleup_latency_ns();
          est.valid = true;
          return est;
        },
    .work =
        [](const fw::OpSpec& spec, const CostEnv&) {
          const auto& cfg =
              fw::spec_config<fused::EmbeddingA2AConfig>(spec);
          return static_cast<double>(cfg.map.tables_per_pe) *
                 static_cast<double>(cfg.map.global_batch) *
                 static_cast<double>(cfg.map.dim) *
                 static_cast<double>(cfg.pooling);
        },
};

}  // namespace

const OpCostModel* find_op_model(const std::string& op) {
  static const std::pair<const char*, const OpCostModel*> kModels[] = {
      {"fcc::gemv_allreduce", &gemv_allreduce_model},
      {"fcc::moe_dispatch", &moe_dispatch_model},
      {"fcc::gemm_a2a", &gemm_a2a_model},
      {"fcc::embedding_a2a", &embedding_a2a_model},
  };
  for (const auto& [name, model] : kModels) {
    if (op == name) return model;
  }
  return nullptr;
}

}  // namespace fcc::plan
