#include "framework/session.h"

#include "plan/planner.h"

namespace fcc::fw {

fused::OperatorResult Session::run(const OpSpec& spec, Backend backend,
                                   const OpRegistry& registry) {
  Graph g;
  g.add(spec, {}, {});
  GraphExecutor executor(world_, g, {backend}, registry);
  return executor.run_to_completion().nodes.front().result;
}

GraphResult Session::run(const Graph& graph, Backend backend,
                         const OpRegistry& registry) {
  // The always-fuse path: collapse every registered pattern pair, then run
  // each live node on the caller's backend — no scoring, no planning.
  Graph lowered = graph;
  const int rewrites = rewrite_fused(lowered, registry);
  const std::vector<Backend> backends(
      static_cast<std::size_t>(lowered.num_nodes()), backend);
  GraphResult result =
      GraphExecutor(world_, lowered, backends, registry).run_to_completion();
  result.rewrites = rewrites;
  return result;
}

Session::PlannedRun Session::run_planned(const Graph& graph,
                                         const plan::PlanOptions& options,
                                         const OpRegistry& registry) {
  plan::Planner planner(registry);
  PlannedRun pr{planner.plan(graph, machine_.config(), options), {}};
  pr.result = GraphExecutor(world_, pr.planned.graph, pr.planned.backends(),
                            registry)
                  .run_to_completion();
  pr.result.rewrites =
      static_cast<int>(pr.planned.plan.fused_rewrites.size());
  return pr;
}

}  // namespace fcc::fw
