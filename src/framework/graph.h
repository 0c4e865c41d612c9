// Multi-op dependency graphs for the framework layer (CoCoNet/GC3-style
// "express the whole program, let the scheduler overlap it").
//
// A Graph is a DAG of op nodes over named symmetric tensors. Tensors are
// pure dependency tokens — operators keep carrying their real storage via
// OpSpec data pointers — and edges derive from dataflow: a node depends on
// the last writer of every tensor it reads (RAW) and, when it writes a
// tensor, on that tensor's previous writer and readers (WAW/WAR), so two
// ops touching disjoint tensors are free to overlap. add_dep() adds the
// control edges dataflow cannot express.
//
// Nodes name ops two ways:
//   * registry ops ("fcc::gemv_allreduce"): dispatchable directly, or
//   * unfused pattern nodes ("aten::embedding_bag" + "c10d::all_to_all"):
//     placeholders that rewrite_fused() collapses into the registered
//     fused op whose OpEntry `pattern` matches — the graph-pass analog of
//     swapping framework graph nodes for the fused operator.
//
// Session::run(Graph) applies the rewrite and hands the lowered graph to
// GraphExecutor, which schedules every ready node concurrently on the sim
// engine. Session::run_planned() additionally scores every rewrite and
// backend choice against the plan layer's cost model (src/plan/) before
// executing.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "framework/op_registry.h"

namespace fcc::fw {

struct TensorId {
  int v = -1;
};

struct NodeId {
  int v = -1;
};

/// One op node: the OpSpec to dispatch plus its dataflow and dependencies.
/// `deps` always point at lower-indexed nodes, so every Graph is a DAG by
/// construction.
struct GraphNode {
  OpSpec spec;
  std::vector<int> inputs;   // tensor ids read
  std::vector<int> outputs;  // tensor ids written
  std::vector<int> deps;     // node ids this node waits on
  std::string label;         // display name (defaults to the op name)
  /// Set by rewrite_fused: this node was collapsed into `merged_into` and
  /// must not be scheduled.
  bool fused_away = false;
  /// On a rewritten node: the pattern it was fused from (doc/telemetry).
  std::string fused_from;
};

class Graph {
 public:
  /// Declares a named symmetric tensor and returns its handle. Names are
  /// labels for results/errors; they need not be unique.
  TensorId tensor(std::string name);

  /// Adds a node dispatching `spec` (see make_spec), reading `inputs` and
  /// writing `outputs`. Dependency edges are derived from tensor dataflow
  /// at add time.
  NodeId add(OpSpec spec, const std::vector<TensorId>& inputs,
             const std::vector<TensorId>& outputs, std::string label = "");

  /// Convenience: build the OpSpec inline from an op name and config.
  template <typename Config>
  NodeId add(std::string op, Config config,
             const std::vector<TensorId>& inputs,
             const std::vector<TensorId>& outputs, std::string label = "") {
    return add(make_spec(std::move(op), std::move(config)), inputs, outputs,
               std::move(label));
  }

  template <typename Config, typename Data>
  NodeId add(std::string op, Config config, Data* data,
             const std::vector<TensorId>& inputs,
             const std::vector<TensorId>& outputs, std::string label = "") {
    return add(make_spec(std::move(op), std::move(config), data), inputs,
               outputs, std::move(label));
  }

  /// Config-free pattern node (e.g. a bare "c10d::all_to_all" collective
  /// whose parameters live on its producer).
  NodeId add(std::string op, const std::vector<TensorId>& inputs,
             const std::vector<TensorId>& outputs, std::string label = "");

  /// Explicit control edge: `node` runs after `before`. `before` must be an
  /// earlier node (the DAG invariant).
  void add_dep(NodeId node, NodeId before);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  /// Mutable spec access for planning passes (config-level mutations that
  /// keep the node's dataflow intact, e.g. collective-algorithm choice).
  OpSpec& mutable_spec(int id) { return mutable_node(id).spec; }
  /// Nodes still scheduled after rewriting (fused-away nodes excluded).
  int num_live_nodes() const;
  const GraphNode& node(int id) const { return nodes_.at(static_cast<std::size_t>(id)); }
  const std::string& tensor_name(int id) const {
    return tensors_.at(static_cast<std::size_t>(id)).name;
  }
  int num_tensors() const { return static_cast<int>(tensors_.size()); }

 private:
  friend int rewrite_fused(Graph& graph, const OpRegistry& registry,
                           std::vector<struct FusedRewrite>* out);
  friend void apply_fused_rewrites(
      Graph& graph, const std::vector<struct FusedRewrite>& rewrites);

  struct TensorState {
    std::string name;
    int last_writer = -1;           // node id, -1 = externally produced
    std::vector<int> readers;       // nodes that read since the last write
  };

  GraphNode& mutable_node(int id) {
    return nodes_.at(static_cast<std::size_t>(id));
  }

  std::vector<GraphNode> nodes_;
  std::vector<TensorState> tensors_;
};

/// One applied (or replayable) pattern collapse: original node ids of the
/// producer/consumer pair and the fused registry op they merged into.
struct FusedRewrite {
  int producer = -1;
  int consumer = -1;
  std::string fused_op;
};

/// The fused-rewrite pass: collapses every producer→consumer pair whose op
/// names match a registered entry's `pattern` into one node
/// dispatching the fused op. The pair must be connected by dataflow and the
/// producer's outputs consumed by the consumer alone (no other reader or
/// control-dependent node), so the fusion cannot reorder anyone else's
/// inputs. The merged node keeps the producer's config/data (pattern
/// convention: the compute node carries the operator parameters; the
/// collective node is parameter-free), reads the producer's inputs, writes
/// the consumer's outputs, and inherits both nodes' remaining deps.
/// Returns the number of pairs rewritten; when `out` is non-null, each
/// collapse is appended to it so a plan cache can replay the lowering
/// without re-running pattern matching.
int rewrite_fused(Graph& graph, const OpRegistry& registry,
                  std::vector<FusedRewrite>* out);
int rewrite_fused(Graph& graph,
                  const OpRegistry& registry = OpRegistry::global());

/// Mechanically replays recorded collapses on a graph with the same shape
/// (same node ids/ops) the rewrites were recorded on — the plan-cache warm
/// path. No pattern matching, no guards: the caller vouches for the shape
/// match (fingerprint-equal graphs).
void apply_fused_rewrites(Graph& graph,
                          const std::vector<FusedRewrite>& rewrites);

}  // namespace fcc::fw
