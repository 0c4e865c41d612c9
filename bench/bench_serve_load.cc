// Offered-load sweep over the serving simulator: find the saturation knee.
//
// For each fabric (fully-connected 1x8, switched 1x8, 2D torus 4x2) the
// bench first calibrates the machine's service capacity — one warm run of
// every catalog chain gives the weighted mean batch service time S, and
// capacity ~= lanes * max_batch / S requests per second — then sweeps
// offered load as a fraction of that capacity with a Poisson firehose.
// Below the knee p99 total latency sits near service + batch window; past
// it the bounded queues fill, latency is queue-depth * batch time, and
// admission control starts rejecting — the p99 inflection (and the
// achieved-vs-offered throughput gap) is the knee.
//
// Output: bench_results/serve_load.csv with p50/p99/p999 columns per
// (topology, load) point, a per-topology knee ratio on stdout, and a
// nonzero exit unless every topology shows a visible knee
// (p99 at the highest load > 2x p99 at the lowest).
//
// Second section: one serve point re-run on the sharded engine at 1/2/4/8
// shards, on a dedicated 8-node x 1-GPU fully-connected machine (the sweep
// fabrics are single-node, and shards partition node-aligned; the torus is
// skipped deliberately — deferred-reservation replay is only order-exact
// for a single operator's per-PE issue streams, and concurrent serving
// lanes interleave same-timestamp issues across PEs, see shmem/world.h).
// Request records and aggregates are asserted byte-identical to the serial
// engine; measured + attainable host speedups are printed per shard count.
//
// Env knobs (CI smoke uses tiny values):
//   FCC_SERVE_BENCH_REQS   requests per point        (default 400)
//   FCC_SERVE_BENCH_LOADS  comma list of load fracs  (default
//                          0.2,0.4,0.6,0.8,1.0,1.25,1.5)
//   FCC_SERVE_SHARD_ITERS  timed serve runs per shard count  (default 3)
//   FCC_SERVE_SHARD_MAX    highest shard count               (default 8)
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "gpu/machine.h"
#include "hw/topology.h"
#include "serve/arrivals.h"
#include "serve/catalog.h"
#include "serve/simulator.h"
#include "shmem/world.h"
#include "sweep_runner.h"

namespace {

using namespace fcc;

struct Topo {
  std::string name;
  gpu::Machine::Config machine;
};

std::vector<Topo> topologies() {
  std::vector<Topo> topos;
  {
    Topo fc{"fully_connected", {}};
    fc.machine.num_nodes = 1;
    fc.machine.gpus_per_node = 8;
    topos.push_back(fc);
  }
  {
    Topo sw{"switched", {}};
    sw.machine.num_nodes = 1;
    sw.machine.gpus_per_node = 8;
    sw.machine.topology.kind = hw::TopologySpec::Kind::kSwitchedNode;
    topos.push_back(sw);
  }
  {
    Topo to{"torus2d_4x2", {}};
    to.machine.num_nodes = 8;
    to.machine.gpus_per_node = 1;
    to.machine.topology.kind = hw::TopologySpec::Kind::kTorus2D;
    to.machine.topology.torus.dim_x = 4;
    to.machine.topology.torus.dim_y = 2;
    topos.push_back(to);
  }
  return topos;
}

std::vector<double> env_loads() {
  std::vector<double> loads;
  const char* v = std::getenv("FCC_SERVE_BENCH_LOADS");
  std::string spec = (v != nullptr && *v != '\0')
                         ? v
                         : "0.2,0.4,0.6,0.8,1.0,1.25,1.5";
  std::istringstream is(spec);
  std::string tok;
  while (std::getline(is, tok, ',')) {
    if (!tok.empty()) {
      loads.push_back(fccbench::env_positive("FCC_SERVE_BENCH_LOADS", tok));
    }
  }
  FCC_CHECK_MSG(loads.size() >= 2, "need >= 2 load points for a knee");
  return loads;
}

struct PointResult {
  double offered_rps = 0, achieved_rps = 0;
  std::int64_t completed = 0, rejected = 0, slo_violations = 0;
  TimeNs p50 = 0, p99 = 0, p999 = 0;
};

PointResult run_point(const Topo& topo, double offered_rps, int num_reqs,
                      std::uint64_t seed) {
  gpu::Machine machine(topo.machine);
  shmem::World world(machine);
  auto catalog = serve::default_catalog(machine.num_pes());
  const auto weights = serve::class_weights(catalog);
  serve::Simulator sim(machine, world, std::move(catalog));
  const auto trace =
      serve::poisson_trace(offered_rps, num_reqs, seed, weights);
  const serve::ServeReport report = sim.run(trace);

  PointResult r;
  r.offered_rps = offered_rps;
  r.achieved_rps = report.achieved_rps();
  r.completed = report.overall.completed;
  r.rejected = report.overall.rejected;
  r.slo_violations = report.overall.slo_violations;
  if (!report.overall.total.empty()) {
    r.p50 = report.overall.total.percentile(50.0);
    r.p99 = report.overall.total.percentile(99.0);
    r.p999 = report.overall.total.percentile(99.9);
  }
  return r;
}

// --------------------------------------------------------------------------
// Sharded serve scaling: the same serve point on the sharded engine.

struct ServeShardPoint {
  serve::ServeReport report;
  double wall_s = 0;
  sim::ShardedEngine::RunStats stats;  // summed over timed iterations
};

ServeShardPoint run_serve_sharded(const Topo& topo, int shards, double rps,
                                  int num_reqs, int iters) {
  gpu::Machine::Config mc = topo.machine;
  mc.num_shards = shards;
  gpu::Machine machine(mc);
  shmem::World world(machine);
  auto catalog = serve::default_catalog(machine.num_pes());
  const auto weights = serve::class_weights(catalog);
  serve::Simulator sim(machine, world, std::move(catalog));
  const auto trace = serve::poisson_trace(rps, num_reqs, 0x5e12f00d, weights);

  ServeShardPoint p;
  p.report = sim.run(trace);  // warm-up; allocations out of the timing
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    const serve::ServeReport again = sim.run(trace);
    FCC_CHECK_MSG(again.records == p.report.records,
                  topo.name << " at " << shards
                            << " shards: warm serve replay diverged");
    const auto& s = machine.last_run_stats();
    p.stats.events += s.events;
    p.stats.windows += s.windows;
    p.stats.messages += s.messages;
    p.stats.barrier_wall_ns += s.barrier_wall_ns;
    p.stats.window_wall_ns += s.window_wall_ns;
    p.stats.critical_wall_ns += s.critical_wall_ns;
  }
  p.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return p;
}

void run_serve_shard_scaling(const Topo& topo, double capacity,
                             int num_reqs) {
  const int iters = fccbench::env_int("FCC_SERVE_SHARD_ITERS", 3, /*min=*/1);
  const int max_shards = fccbench::env_int("FCC_SERVE_SHARD_MAX", 8, /*min=*/0);
  if (max_shards < 1) return;
  const double rps = 0.8 * capacity;  // just under the knee

  AsciiTable table({"shards", "wall (ms)", "speedup", "attainable", "done",
                    "windows"});
  ServeShardPoint serial;
  for (const int shards : {1, 2, 4, 8}) {
    if (shards > max_shards || shards > topo.machine.num_nodes) continue;
    ServeShardPoint p = run_serve_sharded(topo, shards, rps, num_reqs, iters);
    if (shards == 1) {
      serial = std::move(p);
      table.add_row({"1", AsciiTable::fmt(serial.wall_s * 1e3, 1), "1.00",
                     "1.00", std::to_string(serial.report.overall.completed),
                     std::to_string(serial.stats.windows)});
      continue;
    }
    FCC_CHECK_MSG(p.report.records == serial.report.records,
                  topo.name << ": sharded serve records diverged from serial "
                               "at "
                            << shards << " shards");
    FCC_CHECK_MSG(p.report.overall == serial.report.overall,
                  topo.name << ": sharded serve aggregates diverged from "
                               "serial at "
                            << shards << " shards");
    const double speedup = p.wall_s > 0 ? serial.wall_s / p.wall_s : 0;
    // Wall-clock floor with one core per shard: time outside the windows
    // plus each window's slowest shard (same derivation as the Fig. 15
    // flagship and bench_shard_scaling).
    const double window_s = static_cast<double>(p.stats.window_wall_ns) * 1e-9;
    const double critical_s =
        static_cast<double>(p.stats.critical_wall_ns) * 1e-9;
    const double att_wall =
        (p.wall_s > window_s ? p.wall_s - window_s : 0) + critical_s;
    const double attainable = att_wall > 0 ? serial.wall_s / att_wall : 0;
    table.add_row({std::to_string(shards), AsciiTable::fmt(p.wall_s * 1e3, 1),
                   AsciiTable::fmt(speedup, 2), AsciiTable::fmt(attainable, 2),
                   std::to_string(p.report.overall.completed),
                   std::to_string(p.stats.windows)});
  }

  std::cout << "\nSharded serve scaling — " << topo.name << ", "
            << AsciiTable::fmt(rps, 0) << " rps (0.8x capacity), " << num_reqs
            << " requests, " << iters << " timed runs/point\n";
  table.print(std::cout);
  std::cout << "request records byte-identical to serial at every shard "
               "count (asserted)\n";
}

}  // namespace

int main() {
  const auto topos = topologies();
  const auto loads = env_loads();
  const int num_reqs =
      fccbench::env_int("FCC_SERVE_BENCH_REQS", 400, /*min=*/1);

  // Capacity calibration is cheap and sequential; the sweep is the work.
  std::vector<double> capacity_rps(topos.size());
  serve::ServeConfig scfg;  // defaults: 2 lanes, max_batch 8
  for (std::size_t t = 0; t < topos.size(); ++t) {
    const double s = fccbench::calibrate_service_ns(topos[t].machine);
    capacity_rps[t] =
        static_cast<double>(scfg.lanes * scfg.policy.max_batch) * 1e9 / s;
  }

  const int n = static_cast<int>(topos.size() * loads.size());
  const auto results = fccbench::run_sweep<PointResult>(n, [&](int i) {
    const std::size_t t = static_cast<std::size_t>(i) / loads.size();
    const std::size_t l = static_cast<std::size_t>(i) % loads.size();
    return run_point(topos[t], loads[l] * capacity_rps[t], num_reqs,
                     /*seed=*/0x5e12f00d + static_cast<std::uint64_t>(l));
  });

  AsciiTable table({"topology", "load", "offered rps", "achieved rps",
                    "done", "rej", "slo_viol", "p50 (us)", "p99 (us)",
                    "p999 (us)"});
  CsvWriter csv(fccbench::out_dir() + "/serve_load.csv",
                {"topology", "load_frac", "offered_rps", "achieved_rps",
                 "completed", "rejected", "slo_violations", "p50_us",
                 "p99_us", "p999_us"});
  for (int i = 0; i < n; ++i) {
    const std::size_t t = static_cast<std::size_t>(i) / loads.size();
    const std::size_t l = static_cast<std::size_t>(i) % loads.size();
    const PointResult& r = results[static_cast<std::size_t>(i)];
    table.add_row({topos[t].name, AsciiTable::fmt(loads[l], 2),
                   AsciiTable::fmt(r.offered_rps, 0),
                   AsciiTable::fmt(r.achieved_rps, 0),
                   std::to_string(r.completed), std::to_string(r.rejected),
                   std::to_string(r.slo_violations),
                   AsciiTable::fmt(ns_to_us(r.p50), 1),
                   AsciiTable::fmt(ns_to_us(r.p99), 1),
                   AsciiTable::fmt(ns_to_us(r.p999), 1)});
    csv.row(topos[t].name, loads[l], r.offered_rps, r.achieved_rps,
            r.completed, r.rejected, r.slo_violations, ns_to_us(r.p50),
            ns_to_us(r.p99), ns_to_us(r.p999));
  }
  std::cout << "Serving load sweep — open-loop Poisson firehose, "
            << num_reqs << " requests/point, 3-class catalog\n";
  table.print(std::cout);

  // Knee check: p99 at the highest load must blow up vs the lightest load.
  bool knee_everywhere = true;
  for (std::size_t t = 0; t < topos.size(); ++t) {
    const PointResult& lo = results[t * loads.size()];
    const PointResult& hi = results[t * loads.size() + loads.size() - 1];
    const double ratio = lo.p99 > 0 ? static_cast<double>(hi.p99) /
                                          static_cast<double>(lo.p99)
                                    : 0.0;
    std::cout << topos[t].name << ": capacity "
              << AsciiTable::fmt(capacity_rps[t], 0) << " rps, p99 "
              << AsciiTable::fmt(ns_to_us(lo.p99), 1) << " -> "
              << AsciiTable::fmt(ns_to_us(hi.p99), 1) << " us ("
              << AsciiTable::fmt(ratio, 2) << "x)\n";
    if (ratio <= 2.0) {
      std::cout << "  NO VISIBLE KNEE (need > 2x)\n";
      knee_everywhere = false;
    }
  }
  // Same stack, sharded engine: the torus point (the only multi-node fabric
  // here) at 1/2/4/8 shards, byte-identity asserted.
  Topo shard_topo{"fully_connected_8x1", {}};
  shard_topo.machine.num_nodes = 8;
  shard_topo.machine.gpus_per_node = 1;
  const double shard_capacity =
      static_cast<double>(scfg.lanes * scfg.policy.max_batch) * 1e9 /
      fccbench::calibrate_service_ns(shard_topo.machine);
  run_serve_shard_scaling(shard_topo, shard_capacity, num_reqs);

  return knee_everywhere ? 0 : 1;
}
