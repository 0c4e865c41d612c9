// Planner quality gate: on every (op, size, topology) sweep point the
// planned execution must be no slower than BOTH the always-fuse and the
// never-fuse policy — i.e. the planner never applies a predicted-loss
// rewrite, including at the moe_dispatch T=512 crossover where the fused
// path genuinely loses. Each point also verifies the warm-PlanCache path:
// a second plan of the same graph must hit, run zero passes, and replay to
// byte-identical execution records.
//
// Exit status is nonzero if any point plans slower than the best uniform
// policy or any warm-cache replay diverges, so CI can gate on it.
//
// `--print-calibration` re-measures every point and prints the
// src/plan/calibration.cc data rows (measured fused/baseline next to the
// raw analytic prediction); bake the output there whenever the cost model
// or hardware specs change.
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "framework/session.h"
#include "fused/embedding_a2a.h"
#include "fused/gemm_a2a.h"
#include "fused/gemv_allreduce.h"
#include "fused/moe_dispatch.h"
#include "plan/cost_scorer.h"
#include "plan/plan_cache.h"
#include "sweep_runner.h"

namespace {

using namespace fcc;

struct Point {
  std::string label;
  fw::OpSpec spec;
  gpu::Machine::Config machine;
};

gpu::Machine::Config fc(int nodes, int gpn) {
  gpu::Machine::Config mc;
  mc.num_nodes = nodes;
  mc.gpus_per_node = gpn;
  return mc;
}

gpu::Machine::Config switched_1x4() {
  gpu::Machine::Config mc = fc(1, 4);
  mc.topology.kind = hw::TopologySpec::Kind::kSwitchedNode;
  return mc;
}

fw::OpSpec gemv_spec(int m, int k) {
  fused::GemvAllReduceConfig cfg;
  cfg.m = m;
  cfg.k_global = k;
  cfg.functional = false;
  return fw::make_spec("fcc::gemv_allreduce", cfg);
}

fw::OpSpec moe_spec(int tokens, int d_model, int d_out, double hot) {
  fused::MoeDispatchConfig cfg;
  cfg.tokens_per_pe = tokens;
  cfg.d_model = d_model;
  cfg.d_out = d_out;
  cfg.hot_expert_factor = hot;
  cfg.functional = false;
  return fw::make_spec("fcc::moe_dispatch", cfg);
}

fw::OpSpec gemm_spec(int rows, int d_model, int d_ff) {
  fused::GemmA2AConfig cfg;
  cfg.rows_per_origin = rows;
  cfg.d_model = d_model;
  cfg.d_ff = d_ff;
  cfg.functional = false;
  return fw::make_spec("fcc::gemm_a2a", cfg);
}

fw::OpSpec emb_spec(int batch, int tables, int dim, int vps, int pooling) {
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

/// The anchor grid: the figure-bench sweeps (fig08 embedding, fig09
/// gemv+allreduce, fig10 gemm+a2a, the moe shape sweep at skew 4 with its
/// T=512 crossover) plus serving-catalog-scale small shapes, on the
/// fully-connected 1x4, switched 1x4, and fully-connected 2x4 machines.
std::vector<Point> build_grid() {
  std::vector<Point> pts;
  const auto add = [&](std::string label, fw::OpSpec spec,
                       gpu::Machine::Config mc) {
    pts.push_back(Point{std::move(label), std::move(spec), std::move(mc)});
  };

  // fcc::gemv_allreduce — fig09 grid + serving decode/dlrm shapes.
  const int gemv_fc[][2] = {{8192, 8192},  {16384, 8192}, {16384, 16384},
                            {32768, 8192}, {65536, 8192}, {1024, 1024},
                            {512, 1024}};
  for (const auto& [m, k] : gemv_fc) {
    add("gemv M=" + std::to_string(m) + " K=" + std::to_string(k) + " fc1x4",
        gemv_spec(m, k), fc(1, 4));
  }
  const int gemv_sw[][2] = {{8192, 8192}, {16384, 8192}, {65536, 8192}};
  for (const auto& [m, k] : gemv_sw) {
    add("gemv M=" + std::to_string(m) + " K=" + std::to_string(k) + " sw1x4",
        gemv_spec(m, k), switched_1x4());
  }
  const int gemv_2n[][2] = {{8192, 8192}, {16384, 8192}, {32768, 8192}};
  for (const auto& [m, k] : gemv_2n) {
    add("gemv M=" + std::to_string(m) + " K=" + std::to_string(k) + " fc2x4",
        gemv_spec(m, k), fc(2, 4));
  }

  // fcc::moe_dispatch — shape sweep at the acceptance skew of 4x,
  // including the T=512 point where the fused path loses.
  const int moe_fc[][3] = {{512, 1024, 1024},
                           {1024, 1024, 1024},
                           {2048, 1024, 1024},
                           {2048, 2048, 1024},
                           {4096, 2048, 2048}};
  for (const auto& [t, dm, dout] : moe_fc) {
    add("moe T=" + std::to_string(t) + " dM=" + std::to_string(dm) +
            " dO=" + std::to_string(dout) + " skew=4 fc1x4",
        moe_spec(t, dm, dout, 4.0), fc(1, 4));
  }
  const int moe_sw[][3] = {{512, 1024, 1024}, {2048, 1024, 1024}};
  for (const auto& [t, dm, dout] : moe_sw) {
    add("moe T=" + std::to_string(t) + " dM=" + std::to_string(dm) +
            " dO=" + std::to_string(dout) + " skew=4 sw1x4",
        moe_spec(t, dm, dout, 4.0), switched_1x4());
  }

  // fcc::gemm_a2a — fig10 grid + the serving decode tail shape.
  const int gemm_fc[][3] = {{1024, 1024, 1024}, {1024, 2048, 1024},
                            {2048, 1024, 2048}, {2048, 2048, 1024},
                            {4096, 2048, 2048}, {64, 256, 512}};
  for (const auto& [r, dm, dff] : gemm_fc) {
    add("gemm R=" + std::to_string(r) + " dM=" + std::to_string(dm) +
            " dF=" + std::to_string(dff) + " fc1x4",
        gemm_spec(r, dm, dff), fc(1, 4));
  }
  const int gemm_sw[][3] = {{1024, 1024, 1024}, {4096, 2048, 2048}};
  for (const auto& [r, dm, dff] : gemm_sw) {
    add("gemm R=" + std::to_string(r) + " dM=" + std::to_string(dm) +
            " dF=" + std::to_string(dff) + " sw1x4",
        gemm_spec(r, dm, dff), switched_1x4());
  }

  // fcc::embedding_a2a — fig08 grid (dim 256, pooling 100) + the serving
  // dlrm shape (dim 64, pooling 64).
  const int emb_fc[][2] = {{512, 64},   {512, 128},  {1024, 128},
                           {1024, 256}, {2048, 128}, {2048, 256}};
  for (const auto& [batch, tables] : emb_fc) {
    add("emb B=" + std::to_string(batch) + " T=" + std::to_string(tables) +
            " fc1x4",
        emb_spec(batch, tables, 256, 32, 100), fc(1, 4));
  }
  add("emb B=128 T=4 dim=64 fc1x4", emb_spec(128, 4, 64, 8, 64), fc(1, 4));
  const int emb_sw[][2] = {{512, 64}, {1024, 256}, {2048, 256}};
  for (const auto& [batch, tables] : emb_sw) {
    add("emb B=" + std::to_string(batch) + " T=" + std::to_string(tables) +
            " sw1x4",
        emb_spec(batch, tables, 256, 32, 100), switched_1x4());
  }
  return pts;
}

fw::Graph one_node_graph(const Point& p) {
  fw::Graph g;
  auto out = g.tensor("out");
  g.add(p.spec, {}, {out}, p.label);
  return g;
}

struct Measured {
  TimeNs never_fuse = 0;   // uniform baseline backend
  TimeNs always_fuse = 0;  // uniform fused backend
  TimeNs planned = 0;      // full pipeline + calibration
  std::string choice;      // planned backend (+ any ccl algo override)
  bool calibrated = false;
  bool warm_ok = false;  // warm hit, zero passes, byte-identical replay
};

Measured measure(const Point& p) {
  Measured r;
  {
    fw::Session s(p.machine);
    r.never_fuse = s.run(one_node_graph(p), fw::Backend::kBaseline).makespan();
  }
  {
    fw::Session s(p.machine);
    r.always_fuse = s.run(one_node_graph(p), fw::Backend::kFused).makespan();
  }

  plan::PlanCache cache(8);
  plan::PlanOptions options;
  options.cache = &cache;
  fw::Session::PlannedRun cold;
  {
    fw::Session s(p.machine);
    cold = s.run_planned(one_node_graph(p), options);
  }
  r.planned = cold.result.makespan();
  for (const plan::PlanDecision& d : cold.planned.report.decisions) {
    if (d.pass == "score-backends") {
      r.choice = d.choice;
      r.calibrated = d.calibrated;
    } else if (d.pass == "select-ccl-algo" && d.accepted) {
      r.choice += "+" + d.choice;
    }
  }

  // Warm replay: same cache, fresh session — must hit, run zero passes,
  // and land on byte-identical execution records.
  {
    fw::Session s(p.machine);
    const auto warm = s.run_planned(one_node_graph(p), options);
    r.warm_ok = warm.planned.report.cache_hit &&
                warm.planned.report.passes.empty() &&
                warm.result.makespan() == cold.result.makespan() &&
                warm.result.nodes.size() == cold.result.nodes.size();
    if (r.warm_ok) {
      for (std::size_t i = 0; i < warm.result.nodes.size(); ++i) {
        if (!(warm.result.nodes[i].result == cold.result.nodes[i].result)) {
          r.warm_ok = false;
        }
      }
    }
  }
  return r;
}

int print_calibration(const std::vector<Point>& grid) {
  // Raw analytic scores (no calibration) next to fresh measurements, as
  // src/plan/calibration.cc AnchorRow initializers.
  const auto rows = fccbench::run_sweep<std::string>(
      static_cast<int>(grid.size()), [&](int i) {
        const Point& p = grid[static_cast<std::size_t>(i)];
        const Measured m = measure(p);
        plan::CostEnv env;
        env.machine = p.machine;
        const plan::CostScorer raw(env, plan::empty_calibration());
        const plan::CostEstimate est = raw.score(p.spec);
        const plan::OpCostModel* model = plan::find_op_model(p.spec.name);
        std::ostringstream os;
        os << std::setprecision(17) << "      {\"" << p.spec.name << "\", \""
           << env.topo_kind() << "\", " << model->work(p.spec, env) << ", "
           << static_cast<double>(m.always_fuse) << ", "
           << static_cast<double>(m.never_fuse) << ", " << est.fused_ns
           << ", " << est.baseline_ns << ", \"" << p.label << "\"},";
        return os.str();
      });
  std::cout << "// Paste into src/plan/calibration.cc builtin_rows():\n";
  for (const std::string& row : rows) std::cout << row << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<Point> grid = build_grid();
  if (argc > 1 && std::string(argv[1]) == "--print-calibration") {
    return print_calibration(grid);
  }

  const auto results = fccbench::run_sweep<Measured>(
      static_cast<int>(grid.size()),
      [&](int i) { return measure(grid[static_cast<std::size_t>(i)]); });

  AsciiTable t({"config", "never-fuse (us)", "always-fuse (us)",
                "planned (us)", "choice", "ok"});
  CsvWriter csv(fccbench::out_dir() + "/plan_quality.csv",
                {"config", "never_fuse_ns", "always_fuse_ns", "planned_ns",
                 "choice", "ok"});
  int violations = 0;
  int warm_failures = 0;
  int calibrated_points = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Measured& m = results[i];
    const TimeNs best = std::min(m.never_fuse, m.always_fuse);
    const bool honest = m.planned <= best;
    if (!honest) ++violations;
    if (!m.warm_ok) ++warm_failures;
    if (m.calibrated) ++calibrated_points;
    const std::string ok =
        honest && m.warm_ok
            ? "yes"
            : (honest ? "warm-replay-diverged" : "SLOWER-THAN-BEST");
    t.add_row({grid[i].label, AsciiTable::fmt(ns_to_us(m.never_fuse), 1),
               AsciiTable::fmt(ns_to_us(m.always_fuse), 1),
               AsciiTable::fmt(ns_to_us(m.planned), 1), m.choice, ok});
    csv.row(grid[i].label, m.never_fuse, m.always_fuse, m.planned, m.choice,
            ok);
  }

  std::cout << "Planner quality — planned vs the two uniform policies\n"
            << "(planned must be <= min(always-fuse, never-fuse) at every "
               "point; warm PlanCache replays must be byte-identical)\n";
  t.print(std::cout);
  std::cout << "points: " << results.size()
            << "   calibrated: " << calibrated_points
            << "   violations: " << violations
            << "   warm failures: " << warm_failures << "\n\n";

  return violations == 0 && warm_failures == 0 ? 0 : 1;
}
