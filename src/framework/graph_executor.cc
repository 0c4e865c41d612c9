#include "framework/graph_executor.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "common/check.h"
#include "fused/op_runtime.h"

namespace fcc::fw {

TimeNs GraphResult::sum_durations() const {
  TimeNs sum = 0;
  for (const auto& n : nodes) sum += n.result.duration();
  return sum;
}

double GraphResult::overlap_fraction() const {
  const TimeNs sum = sum_durations();
  if (sum <= 0) return 0.0;
  const double frac =
      1.0 - static_cast<double>(makespan()) / static_cast<double>(sum);
  return frac > 0.0 ? frac : 0.0;
}

GraphExecutor::GraphExecutor(shmem::World& world, const Graph& graph,
                             const std::vector<Backend>& backends,
                             const OpRegistry& registry)
    : world_(world), graph_(graph), all_done_(world.machine().engine()) {
  const int n = graph_.num_nodes();
  FCC_CHECK_MSG(static_cast<int>(backends.size()) >= n,
                "per-node backend vector covers " << backends.size()
                                                  << " nodes, graph has " << n);
  // Build every operator before anything is scheduled, so lookup, spec-type
  // and capability errors throw here, catchably, never from a driver
  // coroutine. Construction has no engine side effects.
  nodes_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    nodes_.push_back(
        std::make_unique<NodeState>(world_.machine().engine()));
    const GraphNode& node = graph_.node(i);
    if (node.fused_away) continue;
    for (int d : node.deps) {
      FCC_CHECK_MSG(!graph_.node(d).fused_away,
                    "graph node '" << node.label
                                   << "' depends on a fused-away node");
    }
    auto& op = nodes_.back()->op;
    op = registry.at(node.spec.name)
             .make(world_, node.spec, backends[static_cast<std::size_t>(i)]);
    FCC_CHECK_MSG(op != nullptr,
                  "factory for op '" << node.spec.name << "' returned null");
  }
}

void GraphExecutor::start() {
  FCC_CHECK_MSG(remaining_ == 0,
                "graph run started while a previous run is in flight");
  sim::Engine& engine = world_.machine().engine();
  start_ = engine.now();
  remaining_ = graph_.num_live_nodes();
  all_done_.reset();
  if (remaining_ == 0) all_done_.set();
  for (auto& st : nodes_) st->done.reset();
  for (int i = 0; i < graph_.num_nodes(); ++i) {
    if (nodes_[static_cast<std::size_t>(i)]->op != nullptr) drive(engine, i);
  }
}

sim::Task GraphExecutor::drive(sim::Engine& engine, int id) {
  NodeState& st = *nodes_[static_cast<std::size_t>(id)];
  for (int d : graph_.node(id).deps) {
    co_await nodes_[static_cast<std::size_t>(d)]->done.wait();
  }
  st.ready = engine.now();
  co_await st.op->run();
  st.done.set();
  if (--remaining_ == 0) all_done_.set();
}

sim::Co GraphExecutor::run() {
  start();
  co_await all_done_.wait();
}

GraphResult GraphExecutor::run_to_completion() {
  gpu::Machine& machine = world_.machine();
  start();
  machine.run_all();

  if (remaining_ > 0) {
    std::ostringstream os;
    os << "graph deadlocked (" << machine.sharded().live_tasks()
       << " tasks suspended); unfinished nodes:";
    for (int i = 0; i < graph_.num_nodes(); ++i) {
      const NodeState& st = *nodes_[static_cast<std::size_t>(i)];
      if (st.op == nullptr || st.done.is_set()) continue;
      os << "\n '" << graph_.node(i).label << "'" << st.op->deadlock_report();
    }
    // Suspended driver frames still reference the node states; leak them
    // (the engine-wide deadlock policy — frames go with the process) so
    // ~OneShot never fires with parked waiters during unwinding.
    for (auto& st : nodes_) (void)st.release();
    throw std::logic_error(os.str());
  }
  FCC_CHECK_MSG(machine.sharded().live_tasks() == 0,
                "graph drained but " << machine.sharded().live_tasks()
                                     << " tasks still suspended");
  return result();
}

GraphResult GraphExecutor::result() const {
  const int n = graph_.num_nodes();
  GraphResult out;
  out.start = start_;
  out.end = start_;
  std::vector<TimeNs> cp(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    const NodeState& st = *nodes_[static_cast<std::size_t>(i)];
    if (st.op == nullptr) continue;
    const GraphNode& node = graph_.node(i);
    const fused::OperatorResult& res = st.op->result();
    TimeNs longest_dep = 0;
    for (int d : node.deps) {
      longest_dep = std::max(longest_dep, cp[static_cast<std::size_t>(d)]);
    }
    cp[static_cast<std::size_t>(i)] = longest_dep + res.duration();
    out.critical_path_ns =
        std::max(out.critical_path_ns, cp[static_cast<std::size_t>(i)]);
    out.end = std::max(out.end, res.end);
    out.nodes.push_back(
        {i, node.spec.name, node.label, node.fused_from, st.ready, res});
  }
  return out;
}

}  // namespace fcc::fw
