#include "framework/graph.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/check.h"

namespace fcc::fw {

namespace {

void sort_unique(std::vector<int>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace

TensorId Graph::tensor(std::string name) {
  TensorState t;
  t.name = std::move(name);
  tensors_.push_back(std::move(t));
  return TensorId{static_cast<int>(tensors_.size()) - 1};
}

NodeId Graph::add(OpSpec spec, const std::vector<TensorId>& inputs,
                  const std::vector<TensorId>& outputs, std::string label) {
  const int id = num_nodes();
  GraphNode n;
  n.label = label.empty() ? spec.name : std::move(label);
  n.spec = std::move(spec);
  FCC_CHECK_MSG(!n.spec.name.empty(), "graph node needs an op name");

  auto check_tensor = [this](TensorId t) {
    FCC_CHECK_MSG(t.v >= 0 && t.v < num_tensors(),
                  "graph node references undeclared tensor id " << t.v);
    return t.v;
  };

  // RAW: wait for the producer of every input.
  for (TensorId t : inputs) {
    const int tid = check_tensor(t);
    n.inputs.push_back(tid);
    const TensorState& ts = tensors_[static_cast<std::size_t>(tid)];
    if (ts.last_writer >= 0) n.deps.push_back(ts.last_writer);
  }
  // WAW/WAR: wait for the previous writer and any reader still in flight
  // before overwriting a tensor.
  for (TensorId t : outputs) {
    const int tid = check_tensor(t);
    n.outputs.push_back(tid);
    const TensorState& ts = tensors_[static_cast<std::size_t>(tid)];
    if (ts.last_writer >= 0) n.deps.push_back(ts.last_writer);
    n.deps.insert(n.deps.end(), ts.readers.begin(), ts.readers.end());
  }
  sort_unique(n.deps);

  nodes_.push_back(std::move(n));
  for (int tid : nodes_.back().inputs) {
    tensors_[static_cast<std::size_t>(tid)].readers.push_back(id);
  }
  for (int tid : nodes_.back().outputs) {
    TensorState& ts = tensors_[static_cast<std::size_t>(tid)];
    ts.last_writer = id;
    ts.readers.clear();
  }
  return NodeId{id};
}

NodeId Graph::add(std::string op, const std::vector<TensorId>& inputs,
                  const std::vector<TensorId>& outputs, std::string label) {
  OpSpec spec;
  spec.name = std::move(op);
  return add(std::move(spec), inputs, outputs, std::move(label));
}

void Graph::add_dep(NodeId node, NodeId before) {
  FCC_CHECK_MSG(node.v >= 0 && node.v < num_nodes(),
                "add_dep: bad node id " << node.v);
  FCC_CHECK_MSG(before.v >= 0 && before.v < num_nodes(),
                "add_dep: bad node id " << before.v);
  FCC_CHECK_MSG(before.v < node.v,
                "add_dep: '" << nodes_[static_cast<std::size_t>(node.v)].label
                             << "' cannot wait on the later-added node '"
                             << nodes_[static_cast<std::size_t>(before.v)].label
                             << "' (graphs are DAGs by construction)");
  auto& deps = mutable_node(node.v).deps;
  deps.push_back(before.v);
  sort_unique(deps);
}

int Graph::num_live_nodes() const {
  int n = 0;
  for (const auto& node : nodes_) n += node.fused_away ? 0 : 1;
  return n;
}

void apply_fused_rewrites(Graph& graph,
                          const std::vector<FusedRewrite>& rewrites) {
  for (const FusedRewrite& rw : rewrites) {
    const int i = rw.producer;
    const int j = rw.consumer;
    GraphNode& producer = graph.mutable_node(i);
    GraphNode& consumer = graph.mutable_node(j);

    // Merge the pair into the consumer's slot (every other node's deps
    // stay valid: nothing but the consumer referenced the producer).
    OpSpec merged;
    merged.name = rw.fused_op;
    merged.config = producer.spec.config.has_value() ? producer.spec.config
                                                     : consumer.spec.config;
    merged.data = producer.spec.data.has_value() ? producer.spec.data
                                                 : consumer.spec.data;
    consumer.fused_from = producer.spec.name + " + " + consumer.spec.name;
    consumer.spec = std::move(merged);
    consumer.label = rw.fused_op;

    // Reads: the producer's inputs plus whatever the consumer read that
    // the producer did not feed it. Writes: the consumer's outputs (the
    // producer's become internal to the fused op).
    std::vector<int> inputs = producer.inputs;
    for (int t : consumer.inputs) {
      if (std::find(producer.outputs.begin(), producer.outputs.end(), t) ==
          producer.outputs.end()) {
        inputs.push_back(t);
      }
    }
    sort_unique(inputs);
    consumer.inputs = std::move(inputs);

    std::vector<int> deps = producer.deps;
    for (int d : consumer.deps) {
      if (d != i) deps.push_back(d);
    }
    sort_unique(deps);
    consumer.deps = std::move(deps);

    producer.fused_away = true;
    // Keep tensor bookkeeping usable if the caller keeps building: the
    // fused node stands in for the producer everywhere.
    for (auto& ts : graph.tensors_) {
      if (ts.last_writer == i) ts.last_writer = j;
      for (auto& r : ts.readers) {
        if (r == i) r = j;
      }
    }
  }
}

int rewrite_fused(Graph& graph, const OpRegistry& registry,
                  std::vector<FusedRewrite>* out) {
  // (producer op, consumer op) -> fused registry name. Two entries
  // claiming one pattern would make the rewrite depend on registry
  // iteration order — refuse instead of silently letting one shadow the
  // other.
  std::map<std::pair<std::string, std::string>, std::string> table;
  for (const auto& name : registry.names()) {
    const auto& pat = registry.at(name).pattern;
    if (pat.size() != 2) continue;
    const auto [it, inserted] = table.try_emplace({pat[0], pat[1]}, name);
    FCC_CHECK_MSG(inserted, "ops '" << it->second << "' and '" << name
                                    << "' both declare the unfused pattern '"
                                    << pat[0] << " + " << pat[1] << "'");
  }
  if (table.empty()) return 0;

  int rewrites = 0;
  for (int j = 0; j < graph.num_nodes(); ++j) {
    GraphNode& consumer = graph.mutable_node(j);
    if (consumer.fused_away) continue;
    // Find a dataflow-connected producer dep forming a registered pattern.
    for (int i : std::vector<int>(consumer.deps)) {
      GraphNode& producer = graph.mutable_node(i);
      if (producer.fused_away) continue;
      const auto hit =
          table.find({producer.spec.name, consumer.spec.name});
      if (hit == table.end()) continue;
      // Connected by dataflow (not just a control edge)?
      const bool dataflow = std::any_of(
          producer.outputs.begin(), producer.outputs.end(), [&](int t) {
            return std::find(consumer.inputs.begin(), consumer.inputs.end(),
                             t) != consumer.inputs.end();
          });
      if (!dataflow) continue;
      // The consumer must be the producer's sole dependent — fusing would
      // otherwise retime another node's input.
      bool sole = true;
      for (int k = 0; sole && k < graph.num_nodes(); ++k) {
        if (k == j || graph.node(k).fused_away) continue;
        const auto& deps = graph.node(k).deps;
        sole = std::find(deps.begin(), deps.end(), i) == deps.end();
      }
      if (!sole) continue;

      FusedRewrite rw{i, j, hit->second};
      apply_fused_rewrites(graph, {rw});
      if (out != nullptr) out->push_back(std::move(rw));
      ++rewrites;
      break;  // this consumer is rewritten; move on to the next node
    }
  }
  return rewrites;
}

int rewrite_fused(Graph& graph, const OpRegistry& registry) {
  return rewrite_fused(graph, registry, nullptr);
}

}  // namespace fcc::fw
