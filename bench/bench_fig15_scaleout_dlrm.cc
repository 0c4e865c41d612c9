// Fig. 15: large scale-out simulation — one DLRM training pass with fused
// embedding + All-to-All vs baseline, up to 128 nodes (Table II model,
// 2D torus, ASTRA-Sim-analog methodology).
//
// Paper result: ~21% lower execution time at 128 nodes.
//
// Second section: the same flagship operator (fused embedding All-to-All)
// run *event-driven* on a 64-PE torus machine at engine shard counts
// 1/2/4/8 — the shard-local fused runtime. Its simulated span is printed
// against the bulk-synchronous baseline's, next to the analytic model's
// 64-node ratio. Simulated results and merged traces are asserted
// byte-identical to the serial engine at every shard count; what scales is
// host wall-clock (measured + attainable speedups, in
// bench_results/fig15_fused_shard_scaling.csv).
//
// Third section: the flagship's per-PE shape, fused and baseline, on the
// serial engine over six torus shapes (bench_results/fig15_torus_shapes.csv),
// so the shift order's effect is recorded per shape, not at 8x8 alone.
//
// Env knobs (CI smoke uses tiny values):
//   FCC_FIG15_SHARD_ITERS   timed op runs per shard count   (default 6)
//   FCC_FIG15_SHARD_MAX     highest shard count             (default 8)
#include <chrono>
#include <cstdlib>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "bench_common.h"
#include "common/check.h"
#include "fused/embedding_a2a.h"
#include "gpu/machine.h"
#include "scaleout/dlrm_training.h"
#include "shmem/world.h"
#include "sweep_runner.h"

namespace {

using namespace fcc;

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return static_cast<int>(std::strtol(v, nullptr, 10));
}

// An nx x ny torus, one GPU per node. The flagship runs on 8x8 — the
// Fig. 15 scale-out shape (single-GPU nodes on a 2D torus), and the
// deferred-reservation replay is byte-identical to serial for single-GPU
// nodes at every shard count.
gpu::Machine::Config torus_machine(int nx, int ny, int shards,
                                   bool collect_trace) {
  gpu::Machine::Config cfg;
  cfg.num_nodes = nx * ny;
  cfg.gpus_per_node = 1;
  cfg.topology.kind = hw::TopologySpec::Kind::kTorus2D;
  cfg.topology.torus.dim_x = nx;
  cfg.topology.torus.dim_y = ny;
  cfg.num_shards = shards;
  cfg.collect_trace = collect_trace;
  return cfg;
}

gpu::Machine::Config shard_machine(int shards, bool collect_trace) {
  return torus_machine(8, 8, shards, collect_trace);
}

fused::EmbeddingA2AConfig shard_op_config(int num_pes, bool emit_trace) {
  fused::EmbeddingA2AConfig cfg;
  cfg.map.num_pes = num_pes;
  cfg.map.tables_per_pe = 8;
  cfg.map.global_batch = 64 * num_pes;
  cfg.map.dim = 256;
  cfg.map.vectors_per_slice = 32;
  cfg.functional = false;
  cfg.emit_trace = emit_trace;
  return cfg;
}

struct ShardPoint {
  double wall_s = 0;
  fused::OperatorResult result;  // last iteration's result
  sim::ShardedEngine::RunStats stats;  // summed over iterations
};

ShardPoint run_shard_point(int shards, int iters, unsigned threads) {
  gpu::Machine machine(shard_machine(shards, /*collect_trace=*/false));
  shmem::World world(machine);
  fused::FusedEmbeddingAllToAll op(
      world, shard_op_config(machine.num_pes(), /*emit_trace=*/false),
      nullptr);
  ShardPoint p;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    op.spawn();
    const auto stats = machine.run_all(threads);
    p.stats.events += stats.events;
    p.stats.windows += stats.windows;
    p.stats.messages += stats.messages;
    p.stats.barrier_wall_ns += stats.barrier_wall_ns;
    p.stats.window_wall_ns += stats.window_wall_ns;
    p.stats.critical_wall_ns += stats.critical_wall_ns;
  }
  p.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  p.result = op.result();
  return p;
}

/// One traced run: result + the canonical merged trace, for the
/// byte-identity assertion (kept out of the timed loop).
std::pair<fused::OperatorResult, std::string> traced_shard_run(int shards) {
  gpu::Machine machine(shard_machine(shards, /*collect_trace=*/true));
  shmem::World world(machine);
  fused::FusedEmbeddingAllToAll op(
      world, shard_op_config(machine.num_pes(), /*emit_trace=*/true),
      nullptr);
  const auto res = op.run_to_completion();
  std::ostringstream json;
  machine.merged_trace().write_chrome_json(json);
  return {res, json.str()};
}

/// Wall-clock floor with one core per shard: time outside the windows plus
/// each window's slowest shard (same derivation as bench_shard_scaling).
double attainable_wall_s(const ShardPoint& p) {
  const double window_s = static_cast<double>(p.stats.window_wall_ns) * 1e-9;
  const double critical_s =
      static_cast<double>(p.stats.critical_wall_ns) * 1e-9;
  const double outside_s = p.wall_s > window_s ? p.wall_s - window_s : 0;
  return outside_s + critical_s;
}

/// Simulated span of `Op` (the fused operator or its bulk-synchronous
/// baseline) in the flagship's per-PE shape on an nx x ny torus, serial
/// engine.
template <typename Op>
TimeNs torus_span(int nx, int ny) {
  gpu::Machine machine(torus_machine(nx, ny, 1, /*collect_trace=*/false));
  shmem::World world(machine);
  Op op(world, shard_op_config(machine.num_pes(), /*emit_trace=*/false),
        nullptr);
  return op.run_to_completion().duration();
}

/// Fused and baseline spans per torus shape; returns the 8x8 (flagship)
/// baseline span.
TimeNs run_torus_shapes() {
  const std::pair<int, int> shapes[] = {{4, 4}, {8, 2}, {8, 4},
                                        {5, 5}, {6, 6}, {8, 8}};
  const int n = static_cast<int>(std::size(shapes));
  // Point 2i is shape i fused, point 2i + 1 its baseline.
  const auto spans = fccbench::run_sweep<TimeNs>(2 * n, [&](int i) {
    const auto [nx, ny] = shapes[i / 2];
    return i % 2 == 0 ? torus_span<fused::FusedEmbeddingAllToAll>(nx, ny)
                      : torus_span<fused::BaselineEmbeddingAllToAll>(nx, ny);
  });

  AsciiTable t({"torus", "fused (us)", "baseline (us)", "normalized"});
  CsvWriter csv(fccbench::out_dir() + "/fig15_torus_shapes.csv",
                {"torus", "nodes", "fused_ns", "baseline_ns",
                 "fused_over_baseline"});
  for (int i = 0; i < n; ++i) {
    const auto [nx, ny] = shapes[i];
    const TimeNs fused_ns = spans[static_cast<std::size_t>(2 * i)];
    const TimeNs base_ns = spans[static_cast<std::size_t>(2 * i + 1)];
    const double norm = static_cast<double>(fused_ns) / base_ns;
    const std::string torus = std::to_string(nx) + "x" + std::to_string(ny);
    t.add_row({torus, AsciiTable::fmt(ns_to_us(fused_ns), 1),
               AsciiTable::fmt(ns_to_us(base_ns), 1),
               AsciiTable::fmt(norm, 3)});
    csv.row(torus, nx * ny, fused_ns, base_ns, norm);
  }
  std::cout << "\nFlagship per-PE shape (fused embedding+A2A vs baseline) "
               "per torus shape, serial engine\n";
  t.print(std::cout);
  return spans.back();
}

/// `analytic_norm_64`: the analytic model's fused/baseline ratio for the
/// whole training pass at 64 nodes, printed next to the event-driven
/// operator's ratio; `baseline_ns`: the flagship baseline's span.
void run_sharded_flagship(double analytic_norm_64, TimeNs baseline_ns) {
  const int iters = env_int("FCC_FIG15_SHARD_ITERS", 6);
  const int max_shards = env_int("FCC_FIG15_SHARD_MAX", 8);
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());

  AsciiTable table({"shards", "wall (ms)", "speedup", "attainable",
                    "windows", "events", "Mev/s"});
  CsvWriter csv(fccbench::out_dir() + "/fig15_fused_shard_scaling.csv",
                {"shards", "wall_ms", "speedup", "attainable_speedup",
                 "windows", "events", "events_per_second", "sim_duration_ns",
                 "baseline_duration_ns", "fused_over_baseline"});

  fused::OperatorResult serial_result;
  std::string serial_trace;
  double serial_wall = 0;
  for (const int shards : {1, 2, 4, 8}) {
    if (shards > max_shards) continue;
    const unsigned threads = std::min(static_cast<unsigned>(shards), cores);
    // Byte-identity first: same OperatorResult, same merged trace.
    const auto [res, trace] = traced_shard_run(shards);
    if (shards == 1) {
      serial_result = res;
      serial_trace = trace;
    } else {
      FCC_CHECK_MSG(res == serial_result,
                    "sharded fused embedding result diverged from serial at "
                        << shards << " shards");
      FCC_CHECK_MSG(trace == serial_trace,
                    "sharded fused embedding trace diverged from serial at "
                        << shards << " shards");
    }

    const ShardPoint p = run_shard_point(shards, iters, threads);
    if (shards == 1) serial_wall = p.wall_s;
    const double speedup = p.wall_s > 0 ? serial_wall / p.wall_s : 0;
    const double att_wall = attainable_wall_s(p);
    const double attainable =
        shards == 1 ? 1.0 : (att_wall > 0 ? serial_wall / att_wall : 0);
    const double evps =
        p.wall_s > 0 ? static_cast<double>(p.stats.events) / p.wall_s : 0;
    table.add_row({std::to_string(shards), AsciiTable::fmt(p.wall_s * 1e3, 1),
                   AsciiTable::fmt(speedup, 2), AsciiTable::fmt(attainable, 2),
                   std::to_string(p.stats.windows),
                   std::to_string(p.stats.events),
                   AsciiTable::fmt(evps / 1e6, 2)});
    // Duration, not absolute end: warm back-to-back runs on a sharded
    // machine restart at window-aligned times, so absolute stamps drift
    // across iterations while each run's simulated duration stays equal.
    csv.row(shards, p.wall_s * 1e3, speedup, attainable, p.stats.windows,
            p.stats.events, evps, p.result.duration(), baseline_ns,
            static_cast<double>(p.result.duration()) / baseline_ns);
  }

  const TimeNs fused_ns = serial_result.duration();
  AsciiTable sim({"fused vs baseline at 64 nodes", "baseline (us)",
                  "fused (us)", "normalized"});
  sim.add_row({"event-driven operator (emb+A2A, 8x8 torus)",
               AsciiTable::fmt(ns_to_us(baseline_ns), 1),
               AsciiTable::fmt(ns_to_us(fused_ns), 1),
               AsciiTable::fmt(static_cast<double>(fused_ns) / baseline_ns, 3)});
  sim.add_row({"analytic training pass (table above)", "", "",
               AsciiTable::fmt(analytic_norm_64, 3)});
  std::cout << "\n";
  sim.print(std::cout);

  std::cout << "\nFused embedding All-to-All, event-driven on an 8x8 torus "
               "(64 PEs), sharded engine\n";
  table.print(std::cout);
  std::cout << "simulated results and merged traces byte-identical to serial "
               "at every shard count (asserted)\n";
  if (cores < 4) {
    std::cout << "note: host has " << cores
              << " core(s); 'attainable' is the wall-clock floor with one "
                 "core per shard, from the engine's wall breakdown.\n";
  }
}

}  // namespace

int main() {
  using namespace fcc;
  using namespace fcc::scaleout;

  const int node_counts[] = {8, 16, 32, 64, 128};
  struct Point {
    IterationBreakdown base, fused;
  };
  const auto points = fccbench::run_sweep<Point>(5, [&](int i) {
    TrainingConfig cfg;  // Table II defaults
    cfg.num_nodes = node_counts[i];
    cfg.global_batch = 64 * node_counts[i];
    DlrmTrainingSim sim(cfg);
    return Point{sim.simulate(false), sim.simulate(true)};
  });

  AsciiTable t({"nodes", "torus", "baseline (us)", "fused (us)", "normalized",
                "reduction %"});
  CsvWriter csv(fccbench::out_dir() + "/fig15_scaleout_dlrm.csv",
                {"nodes", "baseline_ns", "fused_ns", "normalized"});
  for (int i = 0; i < 5; ++i) {
    const int nodes = node_counts[i];
    const auto& base = points[static_cast<std::size_t>(i)].base;
    const auto& fused = points[static_cast<std::size_t>(i)].fused;
    const double norm = static_cast<double>(fused.total) / base.total;
    TrainingConfig cfg;
    cfg.num_nodes = nodes;
    const auto torus = torus_for_nodes(nodes, cfg.torus);
    t.add_row({std::to_string(nodes),
               std::to_string(torus.dim_x) + "x" + std::to_string(torus.dim_y),
               AsciiTable::fmt(ns_to_us(base.total), 1),
               AsciiTable::fmt(ns_to_us(fused.total), 1),
               AsciiTable::fmt(norm, 3),
               AsciiTable::fmt(100.0 * (1.0 - norm), 1)});
    csv.row(nodes, base.total, fused.total, norm);
  }
  std::cout << "Fig. 15 — DLRM training pass, fused vs baseline execution "
               "graph (Table II model)\n";
  t.print(std::cout);

  // Component breakdown at 128 nodes (what the overlap hides).
  const auto& b = points.back().base;
  AsciiTable parts({"component (128 nodes)", "per-iteration (us)"});
  parts.add_row({"embedding fwd+bwd",
                 AsciiTable::fmt(ns_to_us(b.emb_fwd + b.emb_bwd), 1)});
  parts.add_row({"All-to-All fwd+bwd",
                 AsciiTable::fmt(ns_to_us(b.a2a_fwd + b.a2a_bwd), 1)});
  parts.add_row({"MLPs fwd+bwd",
                 AsciiTable::fmt(ns_to_us(b.top_mlp_fwd + b.top_mlp_bwd +
                                          b.bottom_mlp_fwd + b.bottom_mlp_bwd),
                                 1)});
  parts.add_row({"interaction (x2)", AsciiTable::fmt(ns_to_us(2 * b.interaction), 1)});
  parts.add_row({"exposed grad AllReduce",
                 AsciiTable::fmt(ns_to_us(b.exposed_allreduce), 1)});
  parts.print(std::cout);
  std::cout << "paper: ~21% reduction at 128 nodes\n";

  const auto& p64 = points[3];  // node_counts[3] == 64, the flagship's size
  const TimeNs flagship_baseline_ns = run_torus_shapes();
  run_sharded_flagship(static_cast<double>(p64.fused.total) / p64.base.total,
                       flagship_baseline_ns);
  return 0;
}
