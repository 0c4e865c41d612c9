#include "plan/planner.h"

#include <chrono>
#include <optional>
#include <sstream>

#include "plan/cost_scorer.h"

namespace fcc::plan {

namespace {

// The three planning passes, in pipeline order:
//
//   fuse-patterns    collapse producer+consumer pattern pairs into
//                    registered fused ops (pattern nodes are not
//                    executable, so collapsing is unconditional —
//                    honesty lives in the next pass)
//   score-backends   per live node, predict fused vs baseline cost and
//                    pick the winner's backend — a fused op that scores
//                    slower than its bulk-synchronous baseline
//                    (moe_dispatch at T=512) is planned onto the baseline
//   select-ccl-algo  per baseline collective-bearing node, run each
//                    eligible ccl algorithm's schedule on an idle scratch
//                    machine and plan the fastest, with no margin; a tie
//                    keeps the incumbent (e.g. the hierarchical AllReduce
//                    on multi-node spans that the flat two-phase default
//                    leaves on the table)
//
// Each pass returns how many changes it made.

int fuse_patterns(fw::Graph& graph, const fw::OpRegistry& registry,
                  Plan& plan, std::vector<PlanDecision>& decisions) {
  std::vector<fw::FusedRewrite> rewrites;
  const int n = rewrite_fused(graph, registry, &rewrites);
  for (const fw::FusedRewrite& rw : rewrites) {
    PlanDecision d;
    d.pass = "fuse-patterns";
    d.node = rw.consumer;
    d.op = rw.fused_op;
    d.label = graph.node(rw.consumer).label;
    d.accepted = true;
    d.choice = rw.fused_op;
    d.why = "pattern pair collapsed (execution backend decided by "
            "score-backends)";
    decisions.push_back(std::move(d));
  }
  plan.fused_rewrites.insert(plan.fused_rewrites.end(), rewrites.begin(),
                             rewrites.end());
  return n;
}

int score_backends(const fw::Graph& graph, const CostScorer& scorer,
                   Plan& plan, std::vector<PlanDecision>& decisions) {
  int changes = 0;
  for (int i = 0; i < graph.num_nodes(); ++i) {
    const fw::GraphNode& node = graph.node(i);
    if (node.fused_away) continue;
    CostEstimate est;
    try {
      est = scorer.score(node.spec);
    } catch (const fw::SpecTypeError& e) {
      // A planner-constructed spec with a bad slot: fail with the node's
      // identity attached, catchably, instead of aborting mid-plan.
      throw PlanError(std::string("scoring graph node '") + node.label +
                      "': " + e.what());
    }
    if (!est.valid) continue;  // no model: keep the default backend
    const fw::Backend chosen = est.winner();
    const fw::Backend before = plan.backends[static_cast<std::size_t>(i)];
    plan.backends[static_cast<std::size_t>(i)] = chosen;
    if (chosen != before) ++changes;
    PlanDecision d;
    d.pass = "score-backends";
    d.node = i;
    d.op = node.spec.name;
    d.label = node.label;
    d.predicted_fused_ns = est.fused_ns;
    d.predicted_baseline_ns = est.baseline_ns;
    d.calibrated = est.calibrated;
    d.accepted = chosen != before;
    d.choice = chosen == fw::Backend::kFused ? "fused" : "baseline";
    d.why = chosen == fw::Backend::kFused
                ? "fused path predicted no slower than the baseline"
                : "fused path predicted slower — rewrite rejected, "
                  "bulk-synchronous baseline planned";
    decisions.push_back(std::move(d));
  }
  return changes;
}

int select_ccl_algo(fw::Graph& graph, const CostEnv& env, Plan& plan,
                    std::vector<PlanDecision>& decisions) {
  int changes = 0;
  for (int i = 0; i < graph.num_nodes(); ++i) {
    const fw::GraphNode& node = graph.node(i);
    if (node.fused_away) continue;
    if (plan.backends[static_cast<std::size_t>(i)] != fw::Backend::kBaseline) {
      continue;  // fused kernels own their communication schedule
    }
    std::optional<AlgoPick> pick;
    try {
      pick = pick_allreduce_algo(node.spec, env);
    } catch (const fw::SpecTypeError& e) {
      throw PlanError(std::string("selecting ccl algo for graph node '") +
                      node.label + "': " + e.what());
    }
    if (!pick) continue;
    const bool apply = pick->chosen != pick->incumbent;
    PlanDecision d;
    d.pass = "select-ccl-algo";
    d.node = i;
    d.op = node.spec.name;
    d.label = node.label;
    d.predicted_fused_ns = pick->chosen_ns;
    d.predicted_baseline_ns = pick->incumbent_ns;
    d.incumbent = allreduce_algo_name(pick->incumbent);
    d.accepted = apply;
    d.choice = allreduce_algo_name(pick->chosen);
    d.why = apply ? "faster than the incumbent algorithm on an idle machine"
                  : "no candidate faster than the incumbent on an idle "
                    "machine";
    if (apply) {
      find_op_model(d.op)->set_allreduce_algo(graph.mutable_spec(i),
                                              pick->chosen);
      plan.allreduce_algos.push_back(AlgoChoice{i, pick->chosen});
      ++changes;
    }
    decisions.push_back(std::move(d));
  }
  return changes;
}

std::string cache_key(const PlanReport& report, const PlanOptions& options) {
  return report.graph_key + "##" + report.topo_key + "##backend=" +
         (options.default_backend == fw::Backend::kFused ? "fused"
                                                         : "baseline");
}

/// Replay a cached plan's decisions onto a fresh graph copy: collapse the
/// recorded pattern pairs and re-apply the collective-algorithm overrides.
/// No pattern matching, no scoring — zero passes run.
void replay(fw::Graph& graph, const Plan& plan) {
  apply_fused_rewrites(graph, plan.fused_rewrites);
  for (const AlgoChoice& choice : plan.allreduce_algos) {
    fw::OpSpec& spec = graph.mutable_spec(choice.node);
    const OpCostModel* model = find_op_model(spec.name);
    if (model != nullptr && model->set_allreduce_algo != nullptr) {
      model->set_allreduce_algo(spec, choice.algo);
    }
  }
}

}  // namespace

std::string PlanReport::to_string() const {
  std::ostringstream os;
  os << "plan: " << (cache_hit ? "cache hit" : "planned")
     << (cacheable ? "" : " (uncacheable: inexact graph fingerprint)")
     << "\n";
  for (const auto& run : passes) {
    os << "  pass " << run.name << ": " << run.changes << " change"
       << (run.changes == 1 ? "" : "s") << "\n";
  }
  for (const PlanDecision& d : decisions) {
    os << "  [" << d.pass << "] node " << d.node << " '" << d.label << "' ("
       << d.op << "): " << (d.accepted ? "applied " : "kept ") << d.choice
       << " — ";
    if (d.pass == "select-ccl-algo") {
      os << d.choice << " " << d.predicted_fused_ns << " ns vs " << d.incumbent
         << " " << d.predicted_baseline_ns << " ns [simulated]";
    } else {
      os << "predicted fused " << d.predicted_fused_ns << " ns vs baseline "
         << d.predicted_baseline_ns << " ns"
         << (d.calibrated ? " [calibrated]" : " [analytic]");
    }
    os << "; " << d.why << "\n";
  }
  return os.str();
}

Planner::Planner(const fw::OpRegistry& registry) : registry_(registry) {}

Planned Planner::plan(const fw::Graph& graph,
                      const gpu::Machine::Config& machine,
                      const PlanOptions& options) const {
  const auto t0 = std::chrono::steady_clock::now();
  Planned out{graph, {}, {}};
  PlanReport& report = out.report;

  // A node carrying the wrong config type trips its shape_key hook inside
  // graph_fingerprint, which rethrows SpecTypeError with the node's
  // identity attached — propagated as-is (still a std::bad_any_cast) so
  // callers guarding single-op dispatch keep working.
  const fw::GraphFingerprint gfp = graph_fingerprint(graph, registry_);
  report.graph_key = gfp.key;
  report.topo_key = fw::topology_fingerprint(machine);
  report.cacheable = gfp.exact;
  const std::string key = cache_key(report, options);

  if (options.cache != nullptr) {
    if (!gfp.exact) {
      options.cache->note_uncacheable();
    } else if (const PlanCache::Entry* hit = options.cache->find(key)) {
      out.plan = hit->plan;
      report.decisions = hit->decisions;
      report.cache_hit = true;
      replay(out.graph, out.plan);
      report.planning_host_ns = static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
      return out;
    }
  }

  out.plan.backends.assign(static_cast<std::size_t>(graph.num_nodes()),
                           options.default_backend);

  CostEnv env;
  env.machine = machine;
  const CostScorer scorer(env, builtin_calibration());
  std::vector<PlanDecision>& log = report.decisions;
  report.passes.push_back(
      {"fuse-patterns", fuse_patterns(out.graph, registry_, out.plan, log)});
  report.passes.push_back(
      {"score-backends", score_backends(out.graph, scorer, out.plan, log)});
  report.passes.push_back(
      {"select-ccl-algo", select_ccl_algo(out.graph, env, out.plan, log)});

  // Every node the pipeline left live must be dispatchable — surface the
  // registry's unknown-op error (with the full registered-op list) as a
  // catchable PlanError naming the node, instead of letting the executor
  // abort mid-run later.
  for (int i = 0; i < out.graph.num_nodes(); ++i) {
    const fw::GraphNode& node = out.graph.node(i);
    if (node.fused_away) continue;
    try {
      (void)registry_.at(node.spec.name);
    } catch (const std::logic_error& e) {
      throw PlanError("planning graph node '" + node.label + "': " + e.what());
    }
  }

  if (options.cache != nullptr && gfp.exact) {
    options.cache->insert(key, PlanCache::Entry{out.plan, report.decisions});
  }
  report.planning_host_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return out;
}

}  // namespace fcc::plan
