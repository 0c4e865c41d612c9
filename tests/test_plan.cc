// The planning subsystem: the fixed pass order, the LRU PlanCache,
// fingerprint exactness and collision-freedom, calibration honesty at the
// measured moe_dispatch T=512 crossover, planner determinism, warm-cache
// replay, Session::run(Graph) bypassing the planner, and the actionable
// planning error paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "framework/fingerprint.h"
#include "framework/session.h"
#include "fused/gemv_allreduce.h"
#include "fused/moe_dispatch.h"
#include "plan/calibration.h"
#include "plan/cost_scorer.h"
#include "plan/plan_cache.h"
#include "plan/planner.h"

namespace fcc::plan {
namespace {

gpu::Machine::Config smoke_machine() {
  gpu::Machine::Config mc;
  mc.num_nodes = 1;
  mc.gpus_per_node = 4;
  return mc;
}

fw::Graph gemv_graph(int m, int k) {
  fused::GemvAllReduceConfig cfg;
  cfg.m = m;
  cfg.k_global = k;
  cfg.functional = false;
  fw::Graph g;
  auto out = g.tensor("y");
  g.add(fw::make_spec("fcc::gemv_allreduce", cfg), {}, {out}, "gemv");
  return g;
}

fw::Graph moe_graph(int tokens) {
  fused::MoeDispatchConfig cfg;
  cfg.tokens_per_pe = tokens;
  cfg.d_model = 1024;
  cfg.d_out = 1024;
  cfg.hot_expert_factor = 4.0;
  cfg.functional = false;
  fw::Graph g;
  auto out = g.tensor("routed");
  g.add(fw::make_spec("fcc::moe_dispatch", cfg), {}, {out}, "moe");
  return g;
}

// ---------------------------------------------------------------------------
// PlanCache
// ---------------------------------------------------------------------------

PlanCache::Entry entry_with_marker(int marker) {
  PlanCache::Entry e;
  e.plan.backends.assign(static_cast<std::size_t>(marker),
                         fw::Backend::kFused);
  return e;
}

TEST(PlanCacheTest, LruEvictionAtCapacity) {
  PlanCache cache(2);
  cache.insert("a", entry_with_marker(1));
  cache.insert("b", entry_with_marker(2));
  ASSERT_NE(cache.find("a"), nullptr);  // bumps "a" most-recent
  cache.insert("c", entry_with_marker(3));  // evicts "b" (least recent)
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.find("b"), nullptr);
  const PlanCache::Entry* a = cache.find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->plan.backends.size(), 1u);
  ASSERT_NE(cache.find("c"), nullptr);
}

TEST(PlanCacheTest, CountersTrackHitsMissesUncacheable) {
  PlanCache cache(4);
  EXPECT_EQ(cache.find("missing"), nullptr);
  cache.insert("k", entry_with_marker(1));
  EXPECT_NE(cache.find("k"), nullptr);
  cache.note_uncacheable();
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().uncacheable, 1);
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.5);
}

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

TEST(Fingerprint, SameShapeSameKeyDifferentConfigDifferentKey) {
  const auto a = fw::graph_fingerprint(gemv_graph(512, 1024));
  const auto b = fw::graph_fingerprint(gemv_graph(512, 1024));
  const auto c = fw::graph_fingerprint(gemv_graph(1024, 1024));
  EXPECT_TRUE(a.exact);
  EXPECT_EQ(a.key, b.key);
  // Same op, same structure, different problem size: the shape_key must
  // separate them (this is what makes cached plans safe to replay).
  EXPECT_NE(a.key, c.key);
}

TEST(Fingerprint, UnregisteredOpMarksInexact) {
  fw::Graph g;
  auto t = g.tensor("t");
  g.add("nowhere::op", {}, {t});
  const auto fp = fw::graph_fingerprint(g);
  EXPECT_FALSE(fp.exact);
  EXPECT_NE(fp.key.find("nowhere::op"), std::string::npos);
}

TEST(Fingerprint, TopologyKeySeparatesGeometryAndKind) {
  const auto base = fw::topology_fingerprint(smoke_machine());
  gpu::Machine::Config two_nodes = smoke_machine();
  two_nodes.num_nodes = 2;
  gpu::Machine::Config switched = smoke_machine();
  switched.topology.kind = hw::TopologySpec::Kind::kSwitchedNode;
  EXPECT_EQ(base, fw::topology_fingerprint(smoke_machine()));
  EXPECT_NE(base, fw::topology_fingerprint(two_nodes));
  EXPECT_NE(base, fw::topology_fingerprint(switched));

  // Driver knobs (sharding, tracing) are not plan-relevant.
  gpu::Machine::Config traced = smoke_machine();
  traced.collect_trace = true;
  EXPECT_EQ(base, fw::topology_fingerprint(traced));
}

TEST(Fingerprint, UncacheableGraphIsPlannedButNotCached) {
  fw::Graph g;
  auto t = g.tensor("t");
  fused::GemvAllReduceConfig cfg;
  cfg.m = 512;
  cfg.k_global = 1024;
  cfg.functional = false;
  g.add(fw::make_spec("fcc::gemv_allreduce", cfg), {}, {t}, "gemv");
  // Register nothing extra — instead plan a graph whose fingerprint is
  // exact, then one that is not, against the same cache.
  PlanCache cache(4);
  PlanOptions options;
  options.cache = &cache;
  Planner planner;
  (void)planner.plan(g, smoke_machine(), options);
  EXPECT_EQ(cache.size(), 1u);

  fw::Graph inexact = g;
  auto u = inexact.tensor("u");
  inexact.add("aten::embedding_bag", {t}, {u});  // pattern op: no shape_key
  // An unfusable pattern node leaves the graph un-dispatchable, so only
  // fingerprint/cache behaviour is checked here, via the planner's report.
  try {
    const Planned p = planner.plan(inexact, smoke_machine(), options);
    EXPECT_FALSE(p.report.cacheable);
  } catch (const PlanError&) {
    // Post-pipeline validation rejects the stray pattern node — fine; the
    // uncacheable lookup was still counted before validation ran.
  }
  EXPECT_EQ(cache.stats().uncacheable, 1);
  EXPECT_EQ(cache.size(), 1u);
}

// ---------------------------------------------------------------------------
// Calibration honesty — both sides of the measured T=512 crossover
// ---------------------------------------------------------------------------

TEST(Calibration, BuiltinTableCoversTheCrossoverOps) {
  const CalibrationTable& table = builtin_calibration();
  ASSERT_GT(table.size(), 0) << "builtin calibration table is empty — "
                                "regenerate with bench_plan_quality "
                                "--print-calibration";
  bool has_crossover_anchor = false;
  for (const CalibrationAnchor& a : table.anchors()) {
    if (a.op == "fcc::moe_dispatch" &&
        a.label.find("T=512") != std::string::npos) {
      has_crossover_anchor = true;
      // The recorded measurement must itself show the crossover: fused
      // slower than baseline at this point.
      EXPECT_GT(a.measured_fused_ns, a.measured_baseline_ns) << a.label;
    }
  }
  EXPECT_TRUE(has_crossover_anchor);
}

TEST(Calibration, PlannerPicksTheMeasuredWinnerOnBothSidesOfCrossover) {
  // Replays the recorded moe_dispatch_skew.csv crossover: at T=512 (skew
  // 4x, 1x4 fully connected) the fused path measured *slower* — the
  // planner must reject the fused rewrite; at T=1024 it measured faster —
  // the planner must keep it. Pure host planning, no simulation.
  Planner planner;
  const Planned at_512 = planner.plan(moe_graph(512), smoke_machine());
  ASSERT_EQ(at_512.plan.backends.size(), 1u);
  EXPECT_EQ(at_512.plan.backends[0], fw::Backend::kBaseline)
      << at_512.report.to_string();

  const Planned at_1024 = planner.plan(moe_graph(1024), smoke_machine());
  ASSERT_EQ(at_1024.plan.backends.size(), 1u);
  EXPECT_EQ(at_1024.plan.backends[0], fw::Backend::kFused)
      << at_1024.report.to_string();

  // The report must carry the predicted costs that justify each call.
  bool found = false;
  for (const PlanDecision& d : at_512.report.decisions) {
    if (d.pass != "score-backends") continue;
    found = true;
    EXPECT_TRUE(d.calibrated);
    EXPECT_GT(d.predicted_fused_ns, d.predicted_baseline_ns);
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Planner determinism and warm-cache replay
// ---------------------------------------------------------------------------

TEST(PlannerDeterminism, RepeatedPlansAreIdentical) {
  Planner planner;
  const Planned a = planner.plan(moe_graph(512), smoke_machine());
  const Planned b = planner.plan(moe_graph(512), smoke_machine());
  EXPECT_EQ(a.plan.backends, b.plan.backends);
  ASSERT_EQ(a.report.decisions.size(), b.report.decisions.size());
  for (std::size_t i = 0; i < a.report.decisions.size(); ++i) {
    EXPECT_EQ(a.report.decisions[i].choice, b.report.decisions[i].choice);
    EXPECT_EQ(a.report.decisions[i].predicted_fused_ns,
              b.report.decisions[i].predicted_fused_ns);
    EXPECT_EQ(a.report.decisions[i].predicted_baseline_ns,
              b.report.decisions[i].predicted_baseline_ns);
  }
  EXPECT_EQ(a.report.graph_key, b.report.graph_key);
}

TEST(PlannerDeterminism, WarmCacheHitReplaysByteIdentically) {
  PlanCache cache(8);
  PlanOptions options;
  options.cache = &cache;

  fw::Session cold_session(smoke_machine());
  const auto cold = cold_session.run_planned(gemv_graph(512, 1024), options);
  EXPECT_FALSE(cold.planned.report.cache_hit);
  // A cold plan runs the three passes, in pipeline order.
  std::vector<std::string> pass_names;
  for (const PassRun& run : cold.planned.report.passes) {
    pass_names.push_back(run.name);
  }
  EXPECT_EQ(pass_names, (std::vector<std::string>{
                            "fuse-patterns", "score-backends",
                            "select-ccl-algo"}));

  fw::Session warm_session(smoke_machine());
  const auto warm = warm_session.run_planned(gemv_graph(512, 1024), options);
  // Warm hit: zero passes re-run, identical decisions, and the planned
  // execution's simulated records are byte-identical to the cold run.
  EXPECT_TRUE(warm.planned.report.cache_hit);
  EXPECT_TRUE(warm.planned.report.passes.empty());
  EXPECT_EQ(warm.planned.plan.backends, cold.planned.plan.backends);
  EXPECT_EQ(warm.result.makespan(), cold.result.makespan());
  ASSERT_EQ(warm.result.nodes.size(), cold.result.nodes.size());
  for (std::size_t i = 0; i < warm.result.nodes.size(); ++i) {
    EXPECT_EQ(warm.result.nodes[i].result, cold.result.nodes[i].result);
  }
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);
}

TEST(PlanReportText, ListsEveryPassAndDecisionOfATwoNodeGraph) {
  fw::Graph g = gemv_graph(512, 1024);
  fused::MoeDispatchConfig moe;
  moe.tokens_per_pe = 512;
  moe.hot_expert_factor = 4.0;
  auto routed = g.tensor("routed");
  g.add(fw::make_spec("fcc::moe_dispatch", moe), {}, {routed}, "moe");

  const Planned planned = Planner().plan(g, smoke_machine());
  const PlanReport& report = planned.report;
  const std::string text = report.to_string();
  EXPECT_EQ(text.rfind("plan: planned\n", 0), 0u) << text;
  for (const PassRun& run : report.passes) {
    EXPECT_NE(text.find("  pass " + run.name + ": "), std::string::npos)
        << run.name << "\n" << text;
  }
  // Both nodes are scored, so each has at least one decision.
  std::vector<std::string> labels;
  for (const PlanDecision& d : report.decisions) labels.push_back(d.label);
  EXPECT_NE(std::find(labels.begin(), labels.end(), "gemv"), labels.end());
  EXPECT_NE(std::find(labels.begin(), labels.end(), "moe"), labels.end());
  for (const PlanDecision& d : report.decisions) {
    const std::string line = "  [" + d.pass + "] node " +
                             std::to_string(d.node) + " '" + d.label +
                             "' (" + d.op + "): " +
                             (d.accepted ? "applied " : "kept ") + d.choice +
                             " — predicted fused ";
    EXPECT_NE(text.find(line), std::string::npos) << line << "\n" << text;
    EXPECT_NE(text.find("; " + d.why + "\n"), std::string::npos) << text;
  }
}

// ---------------------------------------------------------------------------
// Session::run(Graph) never plans
// ---------------------------------------------------------------------------

// A node the planner moves onto the baseline still runs on the backend the
// caller asked for.
TEST(SessionRunGraph, KeepsEveryNodeOnTheRequestedBackend) {
  const fw::Graph g = moe_graph(512);
  fw::Session planned_session(smoke_machine());
  const auto planned = planned_session.run_planned(g);
  ASSERT_EQ(planned.planned.backends().at(0), fw::Backend::kBaseline);

  fw::Session graph_session(smoke_machine());
  const fw::GraphResult gr = graph_session.run(g, fw::Backend::kFused);
  fw::Session op_session(smoke_machine());
  const fused::OperatorResult fused_op =
      op_session.run(g.node(0).spec, fw::Backend::kFused);
  ASSERT_EQ(gr.nodes.size(), 1u);
  EXPECT_EQ(gr.nodes[0].result.duration(), fused_op.duration());
  EXPECT_NE(gr.nodes[0].result.duration(),
            planned.result.nodes.at(0).result.duration());
}

// ---------------------------------------------------------------------------
// Error paths
// ---------------------------------------------------------------------------

TEST(PlanErrors, UnknownOpSurfacesActionablePlanError) {
  fw::Graph g;
  auto t = g.tensor("t");
  g.add("nowhere::op", {}, {t}, "mystery");
  Planner planner;
  try {
    (void)planner.plan(g, smoke_machine());
    FAIL() << "expected PlanError";
  } catch (const PlanError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("mystery"), std::string::npos) << msg;
    EXPECT_NE(msg.find("nowhere::op"), std::string::npos) << msg;
    // The registry's full op list rides along, so the fix is obvious.
    EXPECT_NE(msg.find("fcc::gemv_allreduce"), std::string::npos) << msg;
  }
}

TEST(PlanErrors, MistypedSpecSurfacesSpecTypeErrorWithNodeIdentity) {
  fw::Graph g;
  auto t = g.tensor("t");
  g.add("fcc::gemv_allreduce", /*config=*/42, {}, {t}, "bad-config");
  Planner planner;
  try {
    (void)planner.plan(g, smoke_machine());
    FAIL() << "expected SpecTypeError";
  } catch (const fw::SpecTypeError& e) {
    // The fingerprint's shape_key hook trips first and rethrows with the
    // node's identity; the type stays a std::bad_any_cast so existing
    // single-op dispatch guards keep working.
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bad-config"), std::string::npos) << msg;
    EXPECT_NE(msg.find("fcc::gemv_allreduce"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace fcc::plan
