// Sharded-engine scaling bench: wall-clock for the same torus workload at
// 1/2/4/8 engine shards, across machine sizes from 64 to 4096 PEs.
//
// Simulated results are identical at every shard count (asserted here per
// size against the serial run — the same invariant test_sim_sharded.cc pins
// with goldens); what changes is the host wall-clock. Two speedups are
// reported per point:
//
//   * measured    — serial wall / sharded wall on THIS host. Only
//                   meaningful when the host has >= `shards` cores;
//                   a CI container pinned to one core times-shares the
//                   worker team and measures ~1x by construction.
//   * attainable  — serial wall / (barrier + critical-path window time),
//                   from the engine's own wall breakdown (RunStats): the
//                   serial inter-window barrier plus each window's slowest
//                   shard. This is the wall-clock the same run reaches
//                   with one core per shard, measured — not modeled — from
//                   per-shard timings, and is what the measured column
//                   converges to on an unconstrained host.
//
// Per-point rows go to bench_results/shard_scaling.csv.
//
// Environment knobs (CI runs a reduced sweep):
//   FCC_SHARD_BENCH_MAX_PES  cap on machine size (default 4096)
//   FCC_SHARD_BENCH_ROUNDS   workload rounds (default 12)
#include <chrono>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/check.h"
#include "gpu/machine.h"
#include "scaleout/shard_workload.h"

namespace {

using namespace fcc;

constexpr int kGpusPerNode = 4;

struct GridSize {
  int dim_x;
  int dim_y;
  int pes() const { return dim_x * dim_y * kGpusPerNode; }
};

gpu::Machine::Config machine_config(const GridSize& g, int shards) {
  gpu::Machine::Config cfg;
  cfg.num_nodes = g.dim_x * g.dim_y;
  cfg.gpus_per_node = kGpusPerNode;
  cfg.topology.kind = hw::TopologySpec::Kind::kTorus2D;
  cfg.topology.torus.dim_x = g.dim_x;
  cfg.topology.torus.dim_y = g.dim_y;
  cfg.num_shards = shards;
  return cfg;
}

struct PointResult {
  double wall_s = 0;
  scaleout::ShardTrace trace;
  sim::ShardedEngine::RunStats stats;
};

PointResult run_point(const GridSize& g, int shards,
                      const scaleout::ShardWorkloadConfig& w) {
  gpu::Machine machine(machine_config(g, shards));
  PointResult r;
  // One worker per shard when the host has the cores; otherwise run the
  // windowed protocol single-threaded so the per-shard wall breakdown
  // (barrier vs critical path) is measured without timesharing noise.
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const unsigned threads =
      std::min(static_cast<unsigned>(shards), cores);
  const auto t0 = std::chrono::steady_clock::now();
  r.trace = scaleout::run_shard_workload(machine, w, threads, &r.stats);
  r.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return r;
}

/// Wall-clock this run reaches with one core per shard: everything outside
/// the windows (barrier + protocol) plus each window's slowest shard,
/// instead of the sum of all shards' window time.
double attainable_wall_s(const PointResult& r) {
  const double window_s = static_cast<double>(r.stats.window_wall_ns) * 1e-9;
  const double critical_s =
      static_cast<double>(r.stats.critical_wall_ns) * 1e-9;
  const double outside_s = r.wall_s > window_s ? r.wall_s - window_s : 0;
  return outside_s + critical_s;
}

}  // namespace

int main() {
  const std::vector<GridSize> sizes = {
      {4, 4},    // 64 PEs
      {8, 8},    // 256 PEs
      {16, 16},  // 1024 PEs
      {32, 32},  // 4096 PEs
  };
  // At least the smallest size runs, so the trace-equality gate always
  // compares something.
  const int max_pes = fccbench::env_int("FCC_SHARD_BENCH_MAX_PES", 4096,
                                        /*min=*/sizes.front().pes());

  scaleout::ShardWorkloadConfig w;
  w.rounds = fccbench::env_int("FCC_SHARD_BENCH_ROUNDS", 12, /*min=*/1);
  w.lanes_per_pe = 4;
  w.compute_ns = 2000;
  w.intra_bytes = 32768;
  w.inter_bytes = 8192;

  const std::vector<int> shard_counts = {1, 2, 4, 8};

  AsciiTable table(
      {"pes", "shards", "wall (ms)", "speedup", "attainable", "barrier (ms)",
       "events", "windows", "messages", "Mev/s"});
  CsvWriter csv(fccbench::out_dir() + "/shard_scaling.csv",
                {"pes", "shards", "wall_ms", "speedup", "attainable_speedup",
                 "barrier_ms", "critical_ms", "events", "windows", "messages",
                 "events_per_second", "sim_final_ns"});
  const unsigned host_cores =
      std::max(1u, std::thread::hardware_concurrency());

  for (const GridSize& g : sizes) {
    if (g.pes() > max_pes) {
      std::cout << "skipping " << g.pes() << " PEs (FCC_SHARD_BENCH_MAX_PES="
                << max_pes << ")\n";
      continue;
    }
    double serial_wall = 0;
    scaleout::ShardTrace serial_trace;
    for (const int shards : shard_counts) {
      const PointResult r = run_point(g, shards, w);
      if (shards == 1) {
        serial_wall = r.wall_s;
        serial_trace = r.trace;
      } else {
        // Sharding must be invisible in simulated results.
        FCC_CHECK_MSG(r.trace == serial_trace,
                      "sharded trace diverged from serial at "
                          << g.pes() << " PEs, " << shards << " shards");
      }
      const double speedup = r.wall_s > 0 ? serial_wall / r.wall_s : 0;
      const double att_wall = attainable_wall_s(r);
      const double attainable =
          shards == 1 ? 1.0 : (att_wall > 0 ? serial_wall / att_wall : 0);
      const double evps =
          r.wall_s > 0 ? static_cast<double>(r.stats.events) / r.wall_s : 0;
      const double barrier_ms =
          static_cast<double>(r.stats.barrier_wall_ns) * 1e-6;
      const double critical_ms =
          static_cast<double>(r.stats.critical_wall_ns) * 1e-6;
      table.add_row({std::to_string(g.pes()), std::to_string(shards),
                     AsciiTable::fmt(r.wall_s * 1e3, 1),
                     AsciiTable::fmt(speedup, 2),
                     AsciiTable::fmt(attainable, 2),
                     AsciiTable::fmt(barrier_ms, 1),
                     std::to_string(r.stats.events),
                     std::to_string(r.stats.windows),
                     std::to_string(r.stats.messages),
                     AsciiTable::fmt(evps / 1e6, 2)});
      csv.row(g.pes(), shards, r.wall_s * 1e3, speedup, attainable,
              barrier_ms, critical_ms, r.stats.events, r.stats.windows,
              r.stats.messages, evps, r.trace.final_time());
    }
  }

  std::cout << "Sharded engine scaling (torus, " << kGpusPerNode
            << " GPUs/node, rounds=" << w.rounds << ", host cores: "
            << host_cores << ")\n";
  table.print(std::cout);
  if (host_cores < 4) {
    std::cout << "note: host has " << host_cores
              << " core(s); the measured column timeshares the worker team. "
                 "'attainable' is the same run's wall-clock floor with one "
                 "core per shard (barrier + per-window critical path), "
                 "measured from the engine's wall breakdown.\n";
  }
  std::cout << "wrote " << fccbench::out_dir() << "/shard_scaling.csv\n";
  return 0;
}
