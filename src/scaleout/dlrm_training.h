// Scale-out DLRM training simulation (Fig. 15 methodology).
//
// Mirrors the paper's ASTRA-Sim flow: per-kernel execution times come from
// the GPU cost model (the paper collected them with ROC-profiler on an
// MI210), collectives run as dimension-ordered flows on the event-driven
// `hw::TorusTopology` (the tests keep an analytic `TorusModel` as a
// cross-check; the two agree exactly on this uniform workload), and
// the fused
// execution graph overlaps each All-to-All with its producer/consumer
// embedding pass at slice granularity. One training iteration:
//
//   fwd:  emb_fwd → A2A_fwd   (|| bottom MLP)   → interaction → top MLP
//   bwd:  top MLP ← interaction ← A2A_bwd ← emb_bwd (grad scatter/update)
//         + data-parallel AllReduce of MLP grads (overlapped with MLP bwd)
//
// Baseline exposes both A2As at kernel boundaries; the fused graph
// pipelines them against embedding compute in S slices:
//   t_fused = max(comp, comm) + min(comp, comm)/S + flag overhead.
#pragma once

#include "common/types.h"
#include "hw/gpu_spec.h"
#include "hw/hbm_model.h"
#include "hw/topology.h"

namespace fcc::scaleout {

using TorusSpec = hw::TorusSpec;

/// Table II model parameters (paper defaults).
struct TrainingConfig {
  int num_nodes = 128;       // one GPU per node
  int global_batch = 4096;
  int tables_per_node = 8;
  int emb_dim = 92;
  int pooling = 70;
  int mlp_layers = 43;
  int mlp_avg_width = 682;
  int dense_dim = 92;
  /// Fused pipelining granularity (slices per node per direction).
  int slices = 128;
  /// Fused persistent-kernel compute overhead vs the baseline kernels
  /// (bookkeeping + occupancy loss, measured ~8% on the operator DES).
  double fused_compute_overhead = 1.08;

  hw::GpuSpec gpu;
  TorusSpec torus;  // dims adjusted to num_nodes by the simulator
};

struct IterationBreakdown {
  // Component times (per node, ns).
  TimeNs emb_fwd = 0, emb_bwd = 0;
  TimeNs a2a_fwd = 0, a2a_bwd = 0;
  TimeNs bottom_mlp_fwd = 0, bottom_mlp_bwd = 0;
  TimeNs top_mlp_fwd = 0, top_mlp_bwd = 0;
  TimeNs interaction = 0;
  TimeNs grad_allreduce = 0;
  TimeNs exposed_allreduce = 0;

  TimeNs total = 0;
};

class DlrmTrainingSim {
 public:
  explicit DlrmTrainingSim(const TrainingConfig& cfg);

  /// One training iteration, baseline or fused execution graph.
  IterationBreakdown simulate(bool fused) const;

  /// Paper headline: fused / baseline total time.
  double fused_speedup() const;

 private:
  TimeNs embedding_pass_time(bool fused) const;
  TimeNs mlp_time(double flops) const;
  /// Collective times measured by reserving the dimension-ordered flow
  /// schedules on a fresh (idle) event-driven torus.
  TimeNs torus_a2a_time(Bytes per_pair_bytes) const;
  TimeNs torus_allreduce_time(Bytes bytes) const;

  TrainingConfig cfg_;
  TorusSpec torus_spec_;
};

/// Chooses a near-square 2D torus for `nodes` (16x8 for 128, etc.).
TorusSpec torus_for_nodes(int nodes, const TorusSpec& base);

}  // namespace fcc::scaleout
