// Distributed DLRM forward pass (Fig. 2 of the paper) and training
// iteration (Fig. 15).
//
// Model parallelism for embedding tables (tables_per_pe per GPU), data
// parallelism for the MLPs. The forward pass is one fw::Graph, built once
// with its GraphExecutor and run warm per batch on every PE:
//
//   bottom MLP (dense features)  ──┐   (the only independent compute)
//   embedding pooling + All-to-All ─┤→ interaction → top MLP → CTR logit
//
// A training iteration extends that graph with the backward pass, a chain:
//
//   top MLP bwd → interaction bwd → embedding bwd + All-to-All
//               → bottom MLP bwd → gradient AllReduce
//
// The backward embedding node is a second "fcc::embedding_a2a" with the
// forward's config: the gradient exchange is assumed to move the forward
// exchange's traffic. The MLP weight gradients are summed by one ring
// AllReduce after the backward exchange, so no collective overlaps its
// PUTs.
//
// The MLPs and the interaction are compute-only ops (the forward ones
// with a functional mode), registered in a DLRM-local fw::OpRegistry next
// to the gradient AllReduce and a copy of the global "fcc::embedding_a2a"
// entry. That node dispatches to the fused operator or the
// bulk-synchronous baseline; everything else is identical, so functional
// equality of the two validates the fused exchange.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "framework/session.h"
#include "fused/embedding_a2a.h"

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
  /// Builds the forward graph and its operators (throws catchably if the
  /// session's machine cannot run them).
  DlrmModel(fw::Session& session, DlrmConfig cfg);
  ~DlrmModel();

  /// One forward pass over a synthetic batch drawn from `seed`.
  DlrmResult forward(std::uint64_t seed);

  /// One training iteration, timing only; its graph is built on the first
  /// call. Nodes, in order: bottom_mlp, embedding_a2a, interaction,
  /// top_mlp, top_mlp_backward, interaction_backward,
  /// embedding_a2a_backward, bottom_mlp_backward, grad_allreduce.
  fw::GraphResult train_step();

 private:
  struct State;  // the graphs, their tensors and their executors

  fw::Session& session_;
  DlrmConfig cfg_;
  std::unique_ptr<State> state_;
};

}  // namespace fcc::dlrm
