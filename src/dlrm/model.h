// Distributed DLRM forward pass (Fig. 2 of the paper).
//
// Model parallelism for embedding tables (tables_per_pe per GPU), data
// parallelism for the MLPs. The forward pass runs, per PE and per batch:
//
//   bottom MLP (dense features)  ──┐   (the only independent compute)
//   embedding pooling + All-to-All ─┤→ interaction → top MLP → CTR logit
//
// The embedding + All-to-All stage dispatches to either the fused operator
// or the bulk-synchronous baseline; everything downstream is identical, so
// functional equality between the two paths validates the fused exchange.
#pragma once

#include <cstddef>
#include <vector>

#include "framework/session.h"
#include "fused/embedding_a2a.h"
#include "ops/gemm.h"

namespace fcc::dlrm {

struct DlrmConfig {
  fused::EmbeddingA2AConfig emb;      // slice map, pooling, policy, ...
  int dense_dim = 16;                 // dense-feature input width
  std::vector<int> bottom_mlp = {32, 16};  // widths; output must equal emb dim
  std::vector<int> top_mlp = {64, 1};
  fw::Backend backend = fw::Backend::kFused;

  void validate() const;
  int num_features() const {  // interaction inputs per sample
    return emb.map.tables_per_pe * emb.map.num_pes + 1;
  }
  int interaction_dim() const {  // pairwise dots + bottom passthrough
    const int f = num_features();
    return f * (f - 1) / 2 + emb.map.dim;
  }
};

struct DlrmResult {
  fused::OperatorResult emb_a2a;
  TimeNs bottom_mlp_ns = 0;
  TimeNs top_mlp_ns = 0;  // interaction kernel + top MLP, one lump
  TimeNs total_ns = 0;
  /// Engine events the forward pass fired (determinism goldens pin it).
  std::size_t events = 0;
  /// Functional mode: CTR logits per PE, local-batch order.
  std::vector<std::vector<float>> logits;
};

class DlrmModel {
 public:
  DlrmModel(fw::Session& session, DlrmConfig cfg);

  /// One forward pass over a synthetic batch drawn from `seed`.
  DlrmResult forward(std::uint64_t seed);

 private:
  struct Weights {  // data-parallel: identical on every PE
    std::vector<std::vector<float>> bottom;  // [layer][in*out]
    std::vector<std::vector<float>> top;
  };

  sim::Co mlp_stack(PeId pe, int batch, int in_dim,
                    const std::vector<int>& widths, double efficiency);
  sim::Co interaction_kernel(PeId pe, int batch);

  fw::Session& session_;
  DlrmConfig cfg_;
  Weights weights_;
};

}  // namespace fcc::dlrm
