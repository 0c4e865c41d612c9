#include "framework/session.h"

#include "plan/planner.h"

namespace fcc::fw {

fused::OperatorResult Session::run(const OpSpec& spec, Backend backend,
                                   const OpRegistry& registry) {
  return registry.run(spec, world_, backend);
}

GraphResult Session::run(const Graph& graph, Backend backend,
                         const OpRegistry& registry) {
  // The always-fuse path: collapse every registered pattern pair, then run
  // each live node on the caller's backend — no scoring, no planning.
  Graph lowered = graph;
  const int rewrites = rewrite_fused(lowered, registry);
  GraphResult result = GraphExecutor(lowered, registry).run(world_, backend);
  result.rewrites = rewrites;
  return result;
}

Session::PlannedRun Session::run_planned(const Graph& graph,
                                         const plan::PlanOptions& options,
                                         const OpRegistry& registry) {
  plan::Planner planner(registry);
  PlannedRun pr{planner.plan(graph, machine_.config(), options), {}};
  GraphExecutor executor(pr.planned.graph, registry);
  pr.result = executor.run(world_, pr.planned.backends());
  pr.result.rewrites =
      static_cast<int>(pr.planned.plan.fused_rewrites.size());
  return pr;
}

}  // namespace fcc::fw
