#include "plan/planner.h"

#include <chrono>
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
//   select-ccl-algo  per baseline collective-bearing node, pick the
//                    cheapest predicted ccl algorithm (e.g. the
//                    hierarchical AllReduce on multi-node spans that the
//                    flat two-phase default leaves on the table)
//
// Each pass returns how many changes it made.

/// Relative improvement an algorithm switch must predict before it is
/// applied. Algo scores are analytic-only (the calibration table corrects
/// fused-vs-baseline totals, not per-algorithm collective times), and the
/// closed-form wire model understates the serialization the simulated
/// communicator pays per peer — bench_plan_quality measures the analytic
/// hierarchical-vs-two-phase margin running ~20 points optimistic on the
/// 2x4 machine. The default stands unless the alternative is predicted
/// far enough ahead to survive that bias.
constexpr double kAlgoSwitchMargin = 0.25;

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
    const OpCostModel* model = find_op_model(node.spec.name);
    if (model == nullptr || model->allreduce_candidates.empty() ||
        model->allreduce_time == nullptr ||
        model->set_allreduce_algo == nullptr) {
      continue;
    }
    const ccl::AllReduceAlgo current =
        model->allreduce_algo != nullptr
            ? model->allreduce_algo(node.spec)
            : ccl::AllReduceAlgo::kTwoPhaseDirect;
    double current_ns = 0.0;
    ccl::AllReduceAlgo best = current;
    double best_ns = 0.0;
    try {
      current_ns = model->allreduce_time(node.spec, env, current);
      best_ns = current_ns;
      for (const ccl::AllReduceAlgo algo : model->allreduce_candidates) {
        const double t = model->allreduce_time(node.spec, env, algo);
        if (t < best_ns) {
          best = algo;
          best_ns = t;
        }
      }
    } catch (const fw::SpecTypeError& e) {
      throw PlanError(std::string("selecting ccl algo for graph node '") +
                      node.label + "': " + e.what());
    }
    const bool apply =
        best != current && best_ns < current_ns * (1.0 - kAlgoSwitchMargin);
    if (apply) {
      model->set_allreduce_algo(graph.mutable_spec(i), best);
      plan.allreduce_algos.push_back(AlgoChoice{i, best});
      ++changes;
    }
    PlanDecision d;
    d.pass = "select-ccl-algo";
    d.node = i;
    d.op = node.spec.name;
    d.label = node.label;
    // Re-purpose the cost pair as chosen-vs-incumbent collective time.
    d.predicted_fused_ns = best_ns;
    d.predicted_baseline_ns = current_ns;
    d.accepted = apply;
    d.choice = allreduce_algo_name(apply ? best : current);
    d.why = apply ? "predicted clearly faster than the incumbent algorithm"
                  : "no candidate beat the incumbent by the switch margin";
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
       << " — predicted fused " << d.predicted_fused_ns << " ns vs baseline "
       << d.predicted_baseline_ns << " ns"
       << (d.calibrated ? " [calibrated]" : " [analytic]") << "; " << d.why
       << "\n";
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
