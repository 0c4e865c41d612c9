#include "scaleout/dlrm_training.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "hw/topology.h"

namespace fcc::scaleout {

TorusSpec torus_for_nodes(int nodes, const TorusSpec& base) {
  FCC_CHECK(nodes >= 1);
  TorusSpec t = base;
  int x = 1;
  // Largest divisor <= sqrt(nodes); the other side is nodes / x.
  for (int cand = 1; cand * cand <= nodes; ++cand) {
    if (nodes % cand == 0) x = cand;
  }
  t.dim_y = x;
  t.dim_x = nodes / x;
  return t;
}

DlrmTrainingSim::DlrmTrainingSim(const TrainingConfig& cfg)
    : cfg_(cfg), torus_spec_(torus_for_nodes(cfg.num_nodes, cfg.torus)) {
  FCC_CHECK_MSG(cfg_.num_nodes >= 2,
                "DlrmTrainingSim: scale-out needs >= 2 nodes (a 1x1 torus "
                "has no links)");
  torus_spec_.validate();
  FCC_CHECK(cfg_.global_batch % cfg_.num_nodes == 0);
}

TimeNs DlrmTrainingSim::torus_a2a_time(Bytes per_pair_bytes) const {
  // Fresh topology per measurement: the iteration model composes component
  // times analytically, so each collective sees idle links (where the
  // event-driven flows equal the analytic TorusModel exactly).
  hw::TorusTopology topo(torus_spec_);
  return topo.flow_all_to_all_uniform(per_pair_bytes, /*start=*/0);
}

TimeNs DlrmTrainingSim::torus_allreduce_time(Bytes bytes) const {
  hw::TorusTopology topo(torus_spec_);
  return topo.flow_all_reduce(bytes, /*start=*/0);
}

TimeNs DlrmTrainingSim::embedding_pass_time(bool fused) const {
  // Per node: global_batch x tables_per_node pooled vectors, memory bound.
  const double outputs = static_cast<double>(cfg_.global_batch) *
                         cfg_.tables_per_node;
  const double bytes =
      outputs * (static_cast<double>(cfg_.pooling) * cfg_.emb_dim * 4.0 +
                 cfg_.pooling * 4.0 + cfg_.emb_dim * 4.0);
  const hw::HbmModel hbm(cfg_.gpu.hbm_bytes_per_ns, cfg_.gpu.max_wg_slots());
  const double bw = hbm.total_bandwidth(cfg_.gpu.max_wg_slots());
  const double t = bytes / bw;
  return static_cast<TimeNs>(fused ? t * cfg_.fused_compute_overhead : t);
}

TimeNs DlrmTrainingSim::mlp_time(double flops) const {
  return static_cast<TimeNs>(flops / (0.7 * cfg_.gpu.fp32_flops_per_ns));
}

IterationBreakdown DlrmTrainingSim::simulate(bool fused) const {
  IterationBreakdown b;
  const int n = cfg_.num_nodes;
  const int local_batch = cfg_.global_batch / n;

  // --- component times ---
  b.emb_fwd = embedding_pass_time(fused);
  b.emb_bwd = b.emb_fwd;  // gradient scatter mirrors the forward traffic

  // A2A: each node's pooled outputs minus the locally-consumed share.
  const double send_bytes = static_cast<double>(cfg_.global_batch) *
                            cfg_.tables_per_node * cfg_.emb_dim * 4.0 *
                            (n - 1) / n;
  const Bytes per_pair =
      n > 1 ? static_cast<Bytes>(send_bytes / (n - 1)) : 0;
  b.a2a_fwd = torus_a2a_time(per_pair);
  b.a2a_bwd = b.a2a_fwd;

  // MLPs (data parallel on the local batch; bwd ~ 2x fwd flops).
  const double w = cfg_.mlp_avg_width;
  const double top_flops = 2.0 * local_batch * w * w * cfg_.mlp_layers;
  const double bottom_flops = 2.0 * local_batch * cfg_.dense_dim * w * 3;
  b.top_mlp_fwd = mlp_time(top_flops);
  b.top_mlp_bwd = mlp_time(2.0 * top_flops);
  b.bottom_mlp_fwd = mlp_time(bottom_flops);
  b.bottom_mlp_bwd = mlp_time(2.0 * bottom_flops);

  const int features = cfg_.tables_per_node * n + 1;
  b.interaction = mlp_time(static_cast<double>(local_batch) * features *
                           features * cfg_.emb_dim);

  // Data-parallel gradient AllReduce of MLP weights, overlapped with MLP
  // backward in both modes (standard bucketing).
  const double params = w * w * cfg_.mlp_layers + cfg_.dense_dim * w * 3;
  b.grad_allreduce = torus_allreduce_time(static_cast<Bytes>(params * 4));
  b.exposed_allreduce =
      std::max<TimeNs>(0, b.grad_allreduce - (b.top_mlp_bwd + b.bottom_mlp_bwd));

  // --- execution graph ---
  const TimeNs flag_overhead_per_slice = 900;  // PUT issue + fence + flag
  auto pipelined = [&](TimeNs comp, TimeNs comm) {
    const TimeNs lo = std::min(comp, comm);
    const TimeNs hi = std::max(comp, comm);
    return hi + lo / std::max(1, cfg_.slices) +
           flag_overhead_per_slice * 2;
  };

  if (!fused) {
    // Baseline: A2A exposed at the kernel boundary; bottom MLP (the only
    // independent compute) overlaps the forward A2A.
    const TimeNs fwd = b.emb_fwd +
                       std::max(b.a2a_fwd, b.bottom_mlp_fwd) +
                       b.interaction + b.top_mlp_fwd;
    const TimeNs bwd = b.top_mlp_bwd + b.interaction + b.a2a_bwd + b.emb_bwd +
                       b.bottom_mlp_bwd + b.exposed_allreduce;
    b.total = fwd + bwd;
  } else {
    // Fused: each A2A pipelines against its embedding pass; bottom MLP
    // still overlaps whatever A2A tail remains (conservatively ignored).
    const TimeNs fwd = pipelined(b.emb_fwd, b.a2a_fwd) + b.interaction +
                       b.top_mlp_fwd + b.bottom_mlp_fwd;
    const TimeNs bwd = b.top_mlp_bwd + b.interaction +
                       pipelined(b.emb_bwd, b.a2a_bwd) + b.bottom_mlp_bwd +
                       b.exposed_allreduce;
    b.total = fwd + bwd;
  }
  return b;
}

double DlrmTrainingSim::fused_speedup() const {
  const auto base = simulate(false);
  const auto fused = simulate(true);
  return static_cast<double>(fused.total) / static_cast<double>(base.total);
}

}  // namespace fcc::scaleout
