// plan_grid: 24 single-op graphs on fc1x4, sw1x4 and fc2x4. Half are
// calibration anchors of src/plan/calibration.cc; the other half are
// held-out shapes the cost model was not fitted to, including moe T=768
// (inside the T=512/1024 crossover) and gemv M=24576 on fc2x4 (near the
// algorithm switch). A pass plans every graph cold, plans it warm, and
// executes the planned graph. The only workload where plan quality is the
// result.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "framework/graph.h"
#include "framework/session.h"
#include "fused/embedding_a2a.h"
#include "fused/gemm_a2a.h"
#include "fused/gemv_allreduce.h"
#include "fused/moe_dispatch.h"
#include "harness.h"
#include "plan/plan_cache.h"
#include "plan/planner.h"

namespace perf {
namespace {

using namespace fcc;

struct GridPoint {
  std::string label;
  bool anchor = false;  // a calibration anchor (else held out)
  fw::Graph graph;      // one node
  gpu::Machine::Config machine;
};

gpu::Machine::Config fc(int nodes) {
  gpu::Machine::Config mc;
  mc.num_nodes = nodes;
  mc.gpus_per_node = 4;
  return mc;
}

gpu::Machine::Config sw() {
  gpu::Machine::Config mc = fc(1);
  mc.topology.kind = hw::TopologySpec::Kind::kSwitchedNode;
  return mc;
}

fw::OpSpec gemv(int m, int k) {
  fused::GemvAllReduceConfig cfg;
  cfg.m = m;
  cfg.k_global = k;
  cfg.functional = false;
  return fw::make_spec("fcc::gemv_allreduce", cfg);
}

fw::OpSpec moe(int tokens, int d_model, int d_out, std::uint64_t seed) {
  fused::MoeDispatchConfig cfg;
  cfg.tokens_per_pe = tokens;
  cfg.d_model = d_model;
  cfg.d_out = d_out;
  cfg.hot_expert_factor = 4.0;
  cfg.routing_seed = seed;
  cfg.functional = false;
  return fw::make_spec("fcc::moe_dispatch", cfg);
}

fw::OpSpec gemm(int rows, int d_model, int d_ff) {
  fused::GemmA2AConfig cfg;
  cfg.rows_per_origin = rows;
  cfg.d_model = d_model;
  cfg.d_ff = d_ff;
  cfg.functional = false;
  return fw::make_spec("fcc::gemm_a2a", cfg);
}

fw::OpSpec emb(int batch, int tables, int dim, int vps, int pooling) {
  fused::EmbeddingA2AConfig cfg;
  cfg.map.num_pes = 4;
  cfg.map.tables_per_pe = tables;
  cfg.map.global_batch = batch;
  cfg.map.dim = dim;
  cfg.map.vectors_per_slice = vps;
  cfg.pooling = pooling;
  cfg.functional = false;
  return fw::make_spec("fcc::embedding_a2a", cfg);
}

std::vector<GridPoint> build_grid(const Options& o) {
  const std::uint64_t rs = moe_routing_seed(o.seed);
  std::vector<GridPoint> pts;
  const auto add = [&](std::string label, bool anchor, fw::OpSpec spec,
                       gpu::Machine::Config mc) {
    GridPoint p{std::move(label), anchor, {}, std::move(mc)};
    const fw::TensorId out = p.graph.tensor("out");
    p.graph.add(std::move(spec), {}, {out}, p.label);
    pts.push_back(std::move(p));
  };
  // Calibration anchors (rows of src/plan/calibration.cc).
  add("gemv M=8192 K=8192 fc1x4", true, gemv(8192, 8192), fc(1));
  add("gemv M=1024 K=1024 fc1x4", true, gemv(1024, 1024), fc(1));
  add("gemv M=16384 K=8192 sw1x4", true, gemv(16384, 8192), sw());
  add("gemv M=8192 K=8192 fc2x4", true, gemv(8192, 8192), fc(2));
  add("gemv M=32768 K=8192 fc2x4", true, gemv(32768, 8192), fc(2));
  add("moe T=512 dM=1024 dO=1024 fc1x4", true, moe(512, 1024, 1024, rs),
      fc(1));
  add("moe T=1024 dM=1024 dO=1024 fc1x4", true, moe(1024, 1024, 1024, rs),
      fc(1));
  add("moe T=512 dM=1024 dO=1024 sw1x4", true, moe(512, 1024, 1024, rs),
      sw());
  add("gemm R=1024 dM=1024 dF=1024 fc1x4", true, gemm(1024, 1024, 1024),
      fc(1));
  add("gemm R=64 dM=256 dF=512 fc1x4", true, gemm(64, 256, 512), fc(1));
  add("emb B=128 T=4 dim=64 fc1x4", true, emb(128, 4, 64, 8, 64), fc(1));
  add("emb B=512 T=64 sw1x4", true, emb(512, 64, 256, 32, 100), sw());
  // Held-out shapes.
  add("gemv M=24576 K=8192 fc2x4", false, gemv(24576, 8192), fc(2));
  add("gemv M=4096 K=8192 fc2x4", false, gemv(4096, 8192), fc(2));
  add("gemv M=12288 K=8192 fc1x4", false, gemv(12288, 8192), fc(1));
  add("gemv M=2048 K=2048 sw1x4", false, gemv(2048, 2048), sw());
  add("moe T=768 dM=1024 dO=1024 fc1x4", false, moe(768, 1024, 1024, rs),
      fc(1));
  add("moe T=1536 dM=1024 dO=1024 sw1x4", false, moe(1536, 1024, 1024, rs),
      sw());
  add("moe T=256 dM=512 dO=512 fc1x4", false, moe(256, 512, 512, rs), fc(1));
  add("gemm R=512 dM=1024 dF=1024 fc1x4", false, gemm(512, 1024, 1024),
      fc(1));
  add("gemm R=128 dM=512 dF=512 sw1x4", false, gemm(128, 512, 512), sw());
  add("gemm R=1536 dM=1024 dF=1024 sw1x4", false, gemm(1536, 1024, 1024),
      sw());
  add("emb B=256 T=8 dim=64 fc1x4", false, emb(256, 8, 64, 8, 64), fc(1));
  add("emb B=256 T=32 dim=128 sw1x4", false, emb(256, 32, 128, 16, 64),
      sw());
  if (o.smoke) {
    // One anchor and one held-out graph per op family.
    std::vector<GridPoint> few;
    for (const std::size_t i : {1u, 5u, 9u, 10u, 15u, 18u, 20u, 22u}) {
      few.push_back(std::move(pts[i]));
    }
    return few;
  }
  return pts;
}

/// Node results relative to the graph's start, for comparing warm reruns.
std::vector<fused::OperatorResult> relative_nodes(const fw::GraphResult& g) {
  std::vector<fused::OperatorResult> out;
  for (const fw::NodeRunResult& n : g.nodes) {
    fused::OperatorResult r = n.result;
    for (TimeNs& t : r.pe_end) t -= g.start;
    r.start -= g.start;
    r.end -= g.start;
    out.push_back(std::move(r));
  }
  return out;
}

class PlanGrid final : public Workload {
 public:
  PlanGrid(const Options& o, Tracer& t) : tracer_(t), grid_(build_grid(o)) {}

  void setup() override {
    sessions_.clear();
    for (const GridPoint& p : grid_) {
      auto span = tracer_.span("framework", "Session::Session");
      sessions_.push_back(std::make_unique<fw::Session>(p.machine));
    }
    first_.assign(grid_.size(), {});
    planned_ns_.assign(grid_.size(), 0);
    baseline_planned_.assign(grid_.size(), false);
    mismatches_ = 0;
    warm_misses_ = 0;
    runs_ = 0;
  }

  void pass() override {
    stats_ = {};
    puts_ = 0;
    cold_ns_ = 0;
    warm_ns_ = 0;
    const plan::Planner planner;
    for (std::size_t i = 0; i < grid_.size(); ++i) {
      const GridPoint& p = grid_[i];
      fw::Session& session = *sessions_[i];
      plan::PlanCache cache(4);
      plan::PlanOptions options;
      options.cache = &cache;

      const auto t0 = Clock::now();
      plan::Planned cold;
      {
        auto span = tracer_.span("plan", "Planner::plan cold");
        cold = planner.plan(p.graph, p.machine, options);
      }
      const auto t1 = Clock::now();
      plan::Planned warm;
      {
        auto span = tracer_.span("plan", "Planner::plan warm");
        warm = planner.plan(p.graph, p.machine, options);
      }
      cold_ns_ += std::chrono::duration<double, std::nano>(t1 - t0).count();
      warm_ns_ += seconds_since(t1) * 1e9;
      const bool replayed = warm.report.cache_hit &&
                            warm.report.passes.empty() &&
                            warm.backends() == cold.backends();
      if (!replayed) ++warm_misses_;

      const std::int64_t puts0 = session.world().puts_issued();
      fw::Session::PlannedRun run;
      {
        auto span = tracer_.span("framework", "Session::run_planned");
        run = session.run_planned(p.graph, options);
      }
      stats_.add(session.machine().last_run_stats());
      puts_ += session.world().puts_issued() - puts0;

      const auto nodes = relative_nodes(run.result);
      if (first_[i].empty()) {
        first_[i] = nodes;
        planned_ns_[i] = run.result.makespan();
        baseline_planned_[i] =
            run.planned.backends().front() == fw::Backend::kBaseline;
      } else if (nodes != first_[i] ||
                 run.result.makespan() != planned_ns_[i]) {
        ++mismatches_;
      }
      ++runs_;
    }
  }

  void verify(Verify& v) override {
    v.count(runs_, 0);
    v.check(warm_misses_ == 0,
            "plan_grid: a warm plan missed the cache, re-ran passes, or "
            "changed a backend");
    v.check(mismatches_ == 0,
            "plan_grid: a planned graph's warm rerun changed its records");
    // References: both uniform policies on fresh machines. On an anchor the
    // calibrated planner must never be slower than the better of the two;
    // on a held-out shape a loss is the model's error, reported in
    // plan.violations and plan.heldout_over_best rather than failed.
    best_ns_.clear();
    violations_ = 0;
    for (std::size_t i = 0; i < grid_.size(); ++i) {
      const GridPoint& p = grid_[i];
      TimeNs never = 0, always = 0;
      {
        auto span = tracer_.span("framework", "Session::run never-fuse");
        never = fw::Session(p.machine).run(p.graph, fw::Backend::kBaseline)
                    .makespan();
      }
      {
        auto span = tracer_.span("framework", "Session::run always-fuse");
        always =
            fw::Session(p.machine).run(p.graph, fw::Backend::kFused).makespan();
      }
      best_ns_.push_back(std::min(never, always));
      const bool honest = planned_ns_[i] <= best_ns_.back();
      if (!honest) ++violations_;
      if (p.anchor) {
        v.check(honest, "plan_grid: planned slower than the best uniform "
                        "policy at anchor " + p.label);
      }
    }
  }

  void end_to_end(Metrics& m) override {
    double planned = 0;
    for (const TimeNs t : planned_ns_) planned += static_cast<double>(t);
    m.set("sim_us", planned * 1e-3, "sim_us");
    m.set("sim_ratio", geomean(over_best(true, true)), "ratio");
  }

  void layers(Metrics& m, double pass_wall_s) override {
    Occupancy occ;
    for (auto& s : sessions_) occ.add(s->machine());
    engine_layers(m, stats_, pass_wall_s);
    occupancy_layers(m, occ);
    m.set("shmem.puts", static_cast<double>(puts_), "count");
    const double n = static_cast<double>(grid_.size());
    m.set("plan.cold_us", cold_ns_ * 1e-3 / n, "us");
    m.set("plan.warm_us", warm_ns_ * 1e-3 / n, "us");
    m.set("plan.hit_rate",
          1.0 - static_cast<double>(warm_misses_) /
                    static_cast<double>(std::max<std::int64_t>(1, runs_)),
          "ratio");
    m.set("plan.anchor_over_best", geomean(over_best(true, false)), "ratio");
    m.set("plan.heldout_over_best", geomean(over_best(false, true)), "ratio");
    m.set("plan.violations", static_cast<double>(violations_), "count");
    int baseline = 0;
    for (const bool b : baseline_planned_) baseline += b ? 1 : 0;
    m.set("plan.baseline_stages", baseline, "count");
  }

 private:
  std::vector<double> over_best(bool anchors, bool held_out) const {
    std::vector<double> r;
    for (std::size_t i = 0; i < grid_.size(); ++i) {
      if (grid_[i].anchor ? !anchors : !held_out) continue;
      r.push_back(static_cast<double>(planned_ns_[i]) /
                  static_cast<double>(best_ns_[i]));
    }
    return r;
  }

  Tracer& tracer_;
  std::vector<GridPoint> grid_;
  std::vector<std::unique_ptr<fw::Session>> sessions_;
  std::vector<std::vector<fused::OperatorResult>> first_;
  std::vector<TimeNs> planned_ns_;
  std::vector<bool> baseline_planned_;
  std::vector<TimeNs> best_ns_;
  std::int64_t mismatches_ = 0;
  std::int64_t warm_misses_ = 0;
  std::int64_t violations_ = 0;
  std::int64_t runs_ = 0;
  std::int64_t puts_ = 0;
  double cold_ns_ = 0;
  double warm_ns_ = 0;
  RunStatsSum stats_;
};

}  // namespace

std::unique_ptr<Workload> make_plan_grid(const Options& o, Tracer& t) {
  return std::make_unique<PlanGrid>(o, t);
}

}  // namespace perf
