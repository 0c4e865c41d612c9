// Fig. 15: large scale-out simulation — one DLRM training iteration with
// fused embedding + All-to-All vs baseline, 8 to 128 nodes on a 2D torus.
//
// Paper result: ~21% lower execution time at 128 nodes, from ASTRA-Sim fed
// with kernel times profiled on an MI210.
//
// First section: dlrm::DlrmModel::train_step, one training iteration run
// event-driven on the torus machine (one GPU per node, the near-square
// torus of fccbench::torus_for_nodes), fused and baseline
// (bench_results/fig15_scaleout_dlrm.csv). Table II maps onto DlrmConfig
// as fccbench::table2_dlrm does:
//   - 8 tables per node, embedding dim 92, pooling 70, 64 samples per node;
//   - 43 MLP layers of mean width 682: bottom MLP 713, 713, 92 on 92 dense
//     features, top MLP 39 x 713, then 1;
//   - the top MLP's input is the interaction's output, so its width is
//     DlrmConfig::interaction_dim(): the pairwise dots of 8 x nodes + 1
//     feature vectors plus the bottom output (2172 at 8 nodes, 524892 at
//     128). The first top layer's weights and gradients grow with it, where
//     an earlier closed-form model of this figure counted 43 x 682^2
//     weights at every node count;
//   - the backward embedding node reuses the forward op's traffic
//     (emb_bwd = emb_fwd, the same assumption that model made);
//   - the MLP weight gradients go through one ring AllReduce, after the
//     backward exchange, on both backends.
// The baseline All-to-All keeps RCCL's ring-shift pairwise order while the
// fused op walks the torus's mirrored shifts, so part of each ratio is the
// order, not fusion. Every point also runs on 4 engine shards, and the
// bench exits nonzero unless every node's result (both backends' spans and
// per-PE end times) equals the serial engine's.
//
// Second section: the flagship operator (fused embedding All-to-All) run
// event-driven on a 64-PE torus machine at engine shard counts 1/2/4/8 —
// the shard-local fused runtime. Its simulated span is printed against the
// bulk-synchronous baseline's. Simulated results and merged traces are
// asserted byte-identical to the serial engine at every shard count; what
// scales is host wall-clock (measured + attainable speedups, in
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
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "bench_common.h"
#include "common/check.h"
#include "dlrm/model.h"
#include "framework/session.h"
#include "fused/embedding_a2a.h"
#include "gpu/machine.h"
#include "shmem/world.h"
#include "sweep_runner.h"

namespace {

using namespace fcc;

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

fused::EmbeddingA2AConfig shard_op_config(int num_pes) {
  fused::EmbeddingA2AConfig cfg;
  cfg.map.num_pes = num_pes;
  cfg.map.tables_per_pe = 8;
  cfg.map.global_batch = 64 * num_pes;
  cfg.map.dim = 256;
  cfg.map.vectors_per_slice = 32;
  cfg.functional = false;
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
  fused::FusedEmbeddingAllToAll op(world, shard_op_config(machine.num_pes()),
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
  fused::FusedEmbeddingAllToAll op(world, shard_op_config(machine.num_pes()),
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
  Op op(world, shard_op_config(machine.num_pes()), nullptr);
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

/// `baseline_ns`: the flagship baseline's span.
void run_sharded_flagship(TimeNs baseline_ns) {
  const int iters = fccbench::env_int("FCC_FIG15_SHARD_ITERS", 6, /*min=*/1);
  const int max_shards = fccbench::env_int("FCC_FIG15_SHARD_MAX", 8, /*min=*/1);
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

/// One training iteration of Table II's DLRM on `nodes` torus nodes, the
/// engine split into `shards`.
fw::GraphResult train_iteration(int nodes, int shards, fw::Backend backend) {
  const hw::TorusSpec torus = fccbench::torus_for_nodes(nodes);
  fw::Session session(
      torus_machine(torus.dim_x, torus.dim_y, shards, /*collect_trace=*/false));
  dlrm::DlrmConfig cfg = fccbench::table2_dlrm(nodes);
  cfg.backend = backend;
  return dlrm::DlrmModel(session, cfg).train_step();
}

/// Whether two runs of one graph timed every node identically: ready,
/// start and end times and per-PE end times.
bool same_timing(const fw::GraphResult& a, const fw::GraphResult& b) {
  if (a.start != b.start || a.end != b.end ||
      a.nodes.size() != b.nodes.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    if (a.nodes[i].ready != b.nodes[i].ready ||
        a.nodes[i].result != b.nodes[i].result) {
      return false;
    }
  }
  return true;
}

/// The training-iteration sweep: fused and baseline per node count, each
/// checked serial == 4 shards.
void run_training_sweep() {
  const int node_counts[] = {8, 16, 32, 64, 128};
  const int n = static_cast<int>(std::size(node_counts));
  // Point 4i + 2b + s: node count i, backend b (0 fused, 1 baseline),
  // s == 1 the 4-shard run.
  const auto runs = fccbench::run_sweep<fw::GraphResult>(4 * n, [&](int i) {
    return train_iteration(
        node_counts[i / 4], i % 2 == 0 ? 1 : 4,
        (i / 2) % 2 == 0 ? fw::Backend::kFused : fw::Backend::kBaseline);
  });
  auto run = [&](int i, int backend, int sharded) -> const fw::GraphResult& {
    return runs[static_cast<std::size_t>(4 * i + 2 * backend + sharded)];
  };

  AsciiTable t({"nodes", "torus", "baseline (us)", "fused (us)", "normalized",
                "reduction %"});
  CsvWriter csv(fccbench::out_dir() + "/fig15_scaleout_dlrm.csv",
                {"nodes", "baseline_ns", "fused_ns", "normalized"});
  for (int i = 0; i < n; ++i) {
    const int nodes = node_counts[i];
    for (int b = 0; b < 2; ++b) {
      FCC_CHECK_MSG(same_timing(run(i, b, 1), run(i, b, 0)),
                    (b == 0 ? "fused" : "baseline")
                        << " training iteration at " << nodes
                        << " nodes diverged from serial at 4 shards");
    }
    const TimeNs fused_ns = run(i, 0, 0).makespan();
    const TimeNs base_ns = run(i, 1, 0).makespan();
    const double norm = static_cast<double>(fused_ns) / base_ns;
    const hw::TorusSpec torus = fccbench::torus_for_nodes(nodes);
    t.add_row({std::to_string(nodes),
               std::to_string(torus.dim_x) + "x" + std::to_string(torus.dim_y),
               AsciiTable::fmt(ns_to_us(base_ns), 1),
               AsciiTable::fmt(ns_to_us(fused_ns), 1),
               AsciiTable::fmt(norm, 3),
               AsciiTable::fmt(100.0 * (1.0 - norm), 1)});
    csv.row(nodes, base_ns, fused_ns, norm);
  }
  std::cout << "Fig. 15 — DLRM training iteration, fused vs baseline "
               "(Table II model, event-driven torus)\n";
  t.print(std::cout);
  std::cout << "every point equal to serial at 4 shards (asserted)\n";

  // Where the largest iteration's time goes: each node's ready and end.
  AsciiTable parts({"node (" + std::to_string(node_counts[n - 1]) + " nodes)",
                    "fused ready-end (us)", "baseline ready-end (us)"});
  auto span = [](const fw::NodeRunResult& r) {
    return AsciiTable::fmt(ns_to_us(r.ready), 1) + " - " +
           AsciiTable::fmt(ns_to_us(r.result.end), 1);
  };
  const auto& fused = run(n - 1, 0, 0).nodes;
  const auto& base = run(n - 1, 1, 0).nodes;
  for (std::size_t k = 0; k < fused.size(); ++k) {
    parts.add_row({fused[k].label, span(fused[k]), span(base[k])});
  }
  parts.print(std::cout);
  std::cout << "paper: ~21% reduction at 128 nodes\n";
}

}  // namespace

int main() {
  run_training_sweep();
  run_sharded_flagship(run_torus_shapes());
  return 0;
}
