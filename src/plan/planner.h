// The planning front-end: fingerprint, cache-lookup, then three fixed
// passes in order: fuse-patterns, score-backends, select-ccl-algo.
//
// Planner::plan() takes an application graph and a machine description and
// returns the lowered graph plus per-node execution decisions — which
// pattern pairs collapsed into fused ops, which backend each live node
// runs under (predicted-win only: a fused op whose fused variant scores
// slower than its bulk-synchronous baseline is planned onto the baseline),
// and which ccl algorithm each baseline collective should use (the fastest
// when its schedule runs on an idle scratch machine). Every candidate's
// costs and the accept/reject rationale land in a PlanReport.
//
// Planning is pure host work: it never runs the sim engine, so a
// planned run's simulated timestamps depend only on the decisions, not on
// whether they came from a cold pipeline or a warm PlanCache hit.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "framework/fingerprint.h"
#include "framework/graph.h"
#include "framework/op_registry.h"
#include "gpu/machine.h"
#include "plan/plan_cache.h"

namespace fcc::plan {

/// Planning failed on a specific node. Wraps the underlying registry /
/// spec-type error with the node's identity so a bad planner-constructed
/// spec fails with an actionable message instead of aborting mid-plan.
/// Derives from std::logic_error — the same base OpRegistry::at throws —
/// so callers that already guard graph dispatch keep working.
class PlanError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

struct PlanOptions {
  /// Backend for nodes the scorer has no model for (and the score pass's
  /// comparison default).
  fw::Backend default_backend = fw::Backend::kFused;
  /// Optional shared cache; nullptr plans cold every time.
  PlanCache* cache = nullptr;
};

/// One pass's run: its name and how many changes it made (rewrites
/// applied, backends or algorithms switched).
struct PassRun {
  std::string name;
  int changes = 0;
};

struct PlanReport {
  std::string graph_key;
  std::string topo_key;
  bool cacheable = true;  // graph fingerprint was exact
  bool cache_hit = false;
  std::vector<PassRun> passes;  // empty on a cache hit
  std::vector<PlanDecision> decisions;
  /// Host wall-clock spent planning (informational; not part of any
  /// simulated timing or determinism surface).
  double planning_host_ns = 0.0;

  std::string to_string() const;
};

/// A plan applied to a graph copy, ready to execute.
struct Planned {
  fw::Graph graph;  // lowered
  Plan plan;
  PlanReport report;

  const std::vector<fw::Backend>& backends() const { return plan.backends; }
};

class Planner {
 public:
  explicit Planner(const fw::OpRegistry& registry = fw::OpRegistry::global());

  Planned plan(const fw::Graph& graph, const gpu::Machine::Config& machine,
               const PlanOptions& options = {}) const;

 private:
  const fw::OpRegistry& registry_;
};

}  // namespace fcc::plan
