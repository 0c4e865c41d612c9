// Concurrent topological executor for fw::Graph.
//
// The executor builds every live node's operator once, in its constructor
// (so factory/type errors throw catchably, never from a coroutine), then
// runs the graph warm any number of times. A run spawns one driver process
// per node, which awaits its deps' completion events and then its
// operator's `run()`: independent nodes (layer N+1's embedding dispatch,
// layer N's MLP) interleave their kernels, PUTs and flag traffic on one
// engine, and a chain stage costs one zero-delay resume hop. A run is
// blocking (run_to_completion drains the machine) or awaited from a
// simulated process (run(), as a serve lane does).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "framework/graph.h"
#include "fused/result.h"
#include "shmem/world.h"
#include "sim/co.h"
#include "sim/sync.h"

namespace fcc::fw {

/// One scheduled node's outcome.
struct NodeRunResult {
  int node = -1;           // node id in the executed (lowered) graph
  std::string op;          // registry op dispatched
  std::string label;
  std::string fused_from;  // unfused pattern if the rewrite pass built it
  TimeNs ready = 0;        // when the last dependency completed
  fused::OperatorResult result;
};

struct GraphResult {
  std::vector<NodeRunResult> nodes;  // live nodes, graph order
  TimeNs start = 0;
  TimeNs end = 0;
  /// Longest dependency chain through the executed nodes, by measured op
  /// duration — the lower bound any scheduler can reach.
  TimeNs critical_path_ns = 0;
  /// Pattern pairs collapsed by Session::run's rewrite pass (0 when the
  /// executor was handed an already-lowered graph).
  int rewrites = 0;

  TimeNs makespan() const { return end - start; }
  TimeNs sum_durations() const;
  /// Fraction of total op time hidden by inter-op overlap:
  /// 1 - makespan/sum_durations. 0 for an empty graph or a pure chain.
  double overlap_fraction() const;
};

class GraphExecutor {
 public:
  /// Builds node i's operator on `world` for `backends[i]` (indexed by
  /// node id, fused-away slots ignored). The graph must outlive the
  /// executor. An unrewritten pattern node throws the registry's unknown-op
  /// error here.
  GraphExecutor(shmem::World& world, const Graph& graph,
                const std::vector<Backend>& backends,
                const OpRegistry& registry = OpRegistry::global());

  /// One run, awaited from a process on Machine::engine(); completes the
  /// instant the last node does. One run in flight at a time.
  sim::Co run();

  /// One run, drained with Machine::run_all. Throws if the graph deadlocks.
  GraphResult run_to_completion();

  /// The last completed run's outcome.
  GraphResult result() const;

 private:
  /// A node's operator and its per-run state, reset (not rebuilt) per run.
  struct NodeState {
    explicit NodeState(sim::Engine& e) : done(e) {}
    sim::OneShot done;
    std::unique_ptr<fused::FusedOp> op;  // null for fused-away nodes
    TimeNs ready = 0;
  };

  void start();  // re-arms every node and spawns their drivers
  sim::Task drive(sim::Engine& engine, int id);  // deps, then op->run()

  shmem::World& world_;
  const Graph& graph_;
  std::vector<std::unique_ptr<NodeState>> nodes_;  // [graph node id]
  int remaining_ = 0;  // live nodes the current run has not finished
  sim::OneShot all_done_;
  TimeNs start_ = 0;
};

}  // namespace fcc::fw
