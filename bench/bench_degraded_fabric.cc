// Graceful-degradation sweep: p99 serving latency vs fault severity.
//
// For each fabric (fully-connected 2x4, switched 2x4 with a shared trunk,
// dual-rail 2x4, 2D torus 4x2) the bench calibrates healthy capacity the
// same way bench_serve_load does, fixes an offered load of 0.5x capacity,
// and replays one Poisson trace under a cumulative fault-severity ladder
// scheduled as ordinary engine events (hw::schedule_fault_plan):
//
//   severity 0  healthy fabric
//   severity 1  an inter-node surface derated (browned-out trunk/wire)
//   severity 2  + deeper derate, a second surface derated, jitter
//   severity 3  + a dead redundant component where the fabric has one
//               (multi-rail: a rail dies and traffic fails over; torus: a
//               ring link dies and routes detour) or a crush derate where
//               it does not (fc / switched). Kills always target a link
//               that was never derated, so higher severity never *removes*
//               an earlier impairment.
//
// Timeouts/retries are on so stalled batches are re-executed rather than
// poisoning the tail silently; p99 is computed over every request that ran
// (completed + timed out). The bench exits nonzero unless p99 is monotone
// non-decreasing in severity (0.5% slack) for every fabric and every point
// ran crash-free. A final per-fabric showcase row re-runs severity 3 with
// the fault onset mid-trace and brownout shedding enabled — the server
// calibrates healthy, the fabric collapses, admission sheds — reported but
// never gated (shed load lowers the tail by design).
//
// Output: bench_results/degraded_fabric.csv, p99-vs-severity table and
// per-fabric p99 degradation on stdout.
//
// Env knobs (CI smoke uses tiny values):
//   FCC_DEGRADED_REQS  requests per point (default 240)
#include <algorithm>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "gpu/machine.h"
#include "hw/fault.h"
#include "hw/topology.h"
#include "serve/arrivals.h"
#include "serve/catalog.h"
#include "serve/simulator.h"
#include "shmem/world.h"
#include "sweep_runner.h"

namespace {

using namespace fcc;

constexpr int kSeverities = 4;  // gated ladder 0..3; +1 showcase row

struct EventSpec {
  std::string site;
  hw::FaultKind kind = hw::FaultKind::kDerate;
  double derate = 1.0;
  TimeNs jitter_ns = 0;
};

struct Fabric {
  std::string name;
  gpu::Machine::Config machine;
  /// steps[s] = impairments *added* at severity s+1 (the ladder is
  /// cumulative: severity 3 applies steps[0] + steps[1] + steps[2]).
  std::vector<std::vector<EventSpec>> steps;
};

std::vector<Fabric> fabrics() {
  using K = hw::FaultKind;
  std::vector<Fabric> out;
  {
    Fabric f;
    f.name = "fully_connected_2x4";
    f.machine.num_nodes = 2;
    f.machine.gpus_per_node = 4;
    // One NIC per node: its only rail's wire browns out.
    f.steps = {
        {{"node0.rail0.wire", K::kDerate, 0.6}},
        {{"node0.rail0.wire", K::kDerate, 0.3},
         {"node0.rail0.wire", K::kJitter, 1.0, 800},
         {"node1.rail0.wire", K::kDerate, 0.5}},
        // No redundancy to kill: the brownout deepens into a crush.
        {{"node0.rail0.wire", K::kDerate, 0.1},
         {"node1.rail0.wire", K::kDerate, 0.25}},
    };
    out.push_back(f);
  }
  {
    Fabric f;
    f.name = "switched_2x4";
    f.machine.num_nodes = 2;
    f.machine.gpus_per_node = 4;
    f.machine.topology.kind = hw::TopologySpec::Kind::kSwitchedNode;
    f.machine.topology.switched.trunk_bytes_per_ns = 300.0;
    f.steps = {
        // Degraded trunk + scale-out wire together: intra-node crossbar
        // traffic and inter-node NIC traffic both feel severity 1.
        {{"node0.trunk", K::kDerate, 0.6}, {"node0.wire", K::kDerate, 0.6}},
        {{"node0.wire", K::kDerate, 0.3},
         {"node0.trunk", K::kJitter, 1.0, 800},
         {"node1.wire", K::kDerate, 0.5}},
        {{"node0.wire", K::kDerate, 0.1},
         {"node0.trunk", K::kDerate, 0.2},
         {"node1.wire", K::kDerate, 0.25}},
    };
    out.push_back(f);
  }
  {
    Fabric f;
    f.name = "multi_rail_2x4";
    f.machine.num_nodes = 2;
    f.machine.gpus_per_node = 4;
    f.machine.topology.kind = hw::TopologySpec::Kind::kMultiRail;
    f.machine.topology.nic_rails = 2;
    f.steps = {
        // Derates live on node1's rails; the severity-3 kill takes node0's
        // rail0, so failover lands on a *derated* survivor and no earlier
        // impairment is routed around.
        {{"node1.rail0.wire", K::kDerate, 0.5}},
        {{"node1.rail0.wire", K::kDerate, 0.2},
         {"node1.rail0.wire", K::kJitter, 1.0, 1500},
         {"node1.rail1.wire", K::kDerate, 0.35},
         {"node1.rail1.wire", K::kJitter, 1.0, 800}},
        {{"node0.rail0", K::kDead}, {"node0.rail1.wire", K::kDerate, 0.4}},
    };
    out.push_back(f);
  }
  {
    Fabric f;
    f.name = "torus2d_4x2";
    f.machine.num_nodes = 8;
    f.machine.gpus_per_node = 1;
    f.machine.topology.kind = hw::TopologySpec::Kind::kTorus2D;
    f.machine.topology.torus.dim_x = 4;
    f.machine.topology.torus.dim_y = 2;
    // Narrow links (64 Gb/s) so the fabric is a first-order cost and the
    // ladder moves the tail; all-pairs traffic dilutes any one link to
    // ~1/8 of the load, hence whole-row brownouts per step.
    f.machine.topology.torus.link_bytes_per_ns = 8.0;
    f.steps = {
        // Same principle: the dead link (node0.+x) is not one of the
        // derated ones, so detours stack on top of the brownouts.
        {{"node1.+x", K::kDerate, 0.4}, {"node5.+x", K::kDerate, 0.4}},
        {{"node1.+x", K::kDerate, 0.15},
         {"node1.+x", K::kJitter, 1.0, 1500},
         {"node5.+x", K::kDerate, 0.15},
         {"node3.+x", K::kDerate, 0.4},
         {"node7.+x", K::kDerate, 0.4}},
        {{"node0.+x", K::kDead}, {"node2.+x", K::kDerate, 0.3}},
    };
    out.push_back(f);
  }
  return out;
}

/// The cumulative ladder for one fabric, every event at time `onset`.
hw::FaultPlan severity_plan(hw::Topology& topo, const Fabric& f, int severity,
                            TimeNs onset) {
  hw::FaultPlan plan;
  for (int s = 0; s < severity && s < static_cast<int>(f.steps.size());
       ++s) {
    for (const EventSpec& spec : f.steps[static_cast<std::size_t>(s)]) {
      hw::FaultEvent ev;
      ev.t = onset;
      ev.kind = spec.kind;
      ev.site = topo.fault_site_index(spec.site);
      FCC_CHECK_MSG(ev.site >= 0, "unknown fault site " << spec.site);
      ev.derate = spec.derate;
      ev.jitter_ns = spec.jitter_ns;
      plan.events.push_back(ev);
    }
  }
  return plan;
}

struct PointResult {
  bool crashed = false;
  std::string error;
  std::int64_t completed = 0, rejected = 0, timeouts = 0, retries = 0,
               shed = 0;
  TimeNs p50 = 0, p99 = 0;
};

TimeNs percentile(std::vector<TimeNs>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

PointResult run_point(const Fabric& f, int severity, bool brownout,
                      TimeNs onset, double slo_factor,
                      const std::vector<serve::Arrival>& trace) {
  PointResult r;
  try {
    gpu::Machine machine(f.machine);
    shmem::World world(machine);
    const hw::FaultPlan plan =
        severity_plan(machine.topology(), f, severity, onset);
    hw::schedule_fault_plan(machine.engine(), machine.topology(), plan, 0);
    serve::ServeConfig cfg;
    cfg.timeout.slo_factor = slo_factor;
    cfg.timeout.max_retries = 1;
    cfg.brownout.enabled = brownout;
    cfg.brownout.drift_factor = 1.5;
    serve::Simulator sim(machine, world,
                         serve::default_catalog(machine.num_pes()), cfg);
    const serve::ServeReport report = sim.run(trace);

    r.completed = report.overall.completed;
    r.rejected = report.overall.rejected;
    r.timeouts = report.overall.timeouts;
    r.retries = report.overall.retries;
    r.shed = report.overall.shed;
    // Tail over everything that actually ran: completed AND timed-out
    // requests (a timed-out batch consumed the machine just the same).
    std::vector<TimeNs> totals;
    for (const serve::RequestRecord& rec : report.records) {
      if (rec.end >= 0) totals.push_back(rec.total_ns());
    }
    r.p50 = percentile(totals, 50.0);
    r.p99 = percentile(totals, 99.0);
  } catch (const std::exception& e) {
    r.crashed = true;
    r.error = e.what();
  }
  return r;
}

}  // namespace

int main() {
  const auto fabs = fabrics();
  const int num_reqs = fccbench::env_int("FCC_DEGRADED_REQS", 240, /*min=*/1);
  const int points_per_fabric = kSeverities + 1;  // + brownout showcase

  serve::ServeConfig scfg;
  std::vector<double> offered_rps(fabs.size());
  std::vector<double> slo_factor(fabs.size());
  std::vector<std::vector<serve::Arrival>> traces(fabs.size());
  for (std::size_t t = 0; t < fabs.size(); ++t) {
    const double service_ns = fccbench::calibrate_service_ns(fabs[t].machine);
    offered_rps[t] = 0.5 *
                     static_cast<double>(scfg.lanes * scfg.policy.max_batch) *
                     1e9 / service_ns;
    const auto catalog = serve::default_catalog(
        fabs[t].machine.num_nodes * fabs[t].machine.gpus_per_node);
    TimeNs tightest_slo_ns = 0;  // 0 = no class has an SLO
    for (const serve::ServeClass& c : catalog) {
      const bool tighter = tightest_slo_ns == 0 || c.slo_ns < tightest_slo_ns;
      if (c.slo_ns > 0 && tighter) tightest_slo_ns = c.slo_ns;
    }
    FCC_CHECK_MSG(tightest_slo_ns > 0, "the serve catalog sets no SLO");
    // Deadline headroom is relative to what this machine can actually do:
    // ~6x a healthy batch (in units of the tightest class SLO), so the
    // healthy run is timeout-free and a crushed fabric still trips it.
    slo_factor[t] = 6.0 * service_ns / static_cast<double>(tightest_slo_ns);
    const auto weights = serve::class_weights(catalog);
    traces[t] = serve::poisson_trace(offered_rps[t], num_reqs,
                                     /*seed=*/0xfa117 + t, weights);
  }

  const int n = static_cast<int>(fabs.size()) * points_per_fabric;
  const auto results = fccbench::run_sweep<PointResult>(n, [&](int i) {
    const auto t = static_cast<std::size_t>(i / points_per_fabric);
    const int p = i % points_per_fabric;
    const int severity = p < kSeverities ? p : kSeverities - 1;
    const bool brownout = p >= kSeverities;
    // Gated ladder: faults precede all traffic (whole-run severity).
    // Showcase: onset 30% into the trace so brownout calibrates on the
    // healthy fabric first, then sheds when service collapses.
    const TimeNs onset = brownout ? traces[t].back().t * 3 / 10 : 0;
    return run_point(fabs[t], severity, brownout, onset, slo_factor[t],
                     traces[t]);
  });

  AsciiTable table({"fabric", "severity", "brownout", "done", "rej",
                    "timeout", "retry", "shed", "p50 (us)", "p99 (us)"});
  CsvWriter csv(fccbench::out_dir() + "/degraded_fabric.csv",
                {"fabric", "severity", "brownout", "offered_rps", "completed",
                 "rejected", "timeouts", "retries", "shed", "p50_us",
                 "p99_us"});
  bool crash_free = true;
  for (int i = 0; i < n; ++i) {
    const auto t = static_cast<std::size_t>(i / points_per_fabric);
    const int p = i % points_per_fabric;
    const int severity = p < kSeverities ? p : kSeverities - 1;
    const bool brownout = p >= kSeverities;
    const PointResult& r = results[static_cast<std::size_t>(i)];
    if (r.crashed) {
      crash_free = false;
      std::cout << fabs[t].name << " severity " << severity
                << " CRASHED: " << r.error << "\n";
      continue;
    }
    table.add_row({fabs[t].name, std::to_string(severity),
                   brownout ? "on" : "off", std::to_string(r.completed),
                   std::to_string(r.rejected), std::to_string(r.timeouts),
                   std::to_string(r.retries), std::to_string(r.shed),
                   AsciiTable::fmt(ns_to_us(r.p50), 1),
                   AsciiTable::fmt(ns_to_us(r.p99), 1)});
    csv.row(fabs[t].name, severity, brownout ? 1 : 0, offered_rps[t],
            r.completed, r.rejected, r.timeouts, r.retries, r.shed,
            ns_to_us(r.p50), ns_to_us(r.p99));
  }
  std::cout << "Degraded-fabric sweep — " << num_reqs
            << " requests/point at 0.5x healthy capacity, timeouts on\n";
  table.print(std::cout);

  // Gate: tail latency must degrade monotonically with severity (0.5%
  // slack) on the brownout-off ladder, and nothing may crash.
  bool monotone = true;
  for (std::size_t t = 0; t < fabs.size(); ++t) {
    const auto base = t * static_cast<std::size_t>(points_per_fabric);
    const PointResult& healthy = results[base];
    const PointResult& worst = results[base + kSeverities - 1];
    const double degradation =
        healthy.p99 > 0 ? static_cast<double>(worst.p99) /
                              static_cast<double>(healthy.p99)
                        : 0.0;
    std::cout << fabs[t].name << ": p99 "
              << AsciiTable::fmt(ns_to_us(healthy.p99), 1) << " -> "
              << AsciiTable::fmt(ns_to_us(worst.p99), 1) << " us ("
              << AsciiTable::fmt(degradation, 2) << "x degradation)\n";
    for (int s = 1; s < kSeverities; ++s) {
      const TimeNs prev = results[base + static_cast<std::size_t>(s - 1)].p99;
      const TimeNs cur = results[base + static_cast<std::size_t>(s)].p99;
      if (static_cast<double>(cur) < 0.995 * static_cast<double>(prev)) {
        std::cout << "  NOT MONOTONE: severity " << s << " p99 "
                  << ns_to_us(cur) << " us < severity " << s - 1 << " p99 "
                  << ns_to_us(prev) << " us\n";
        monotone = false;
      }
    }
  }
  return crash_free && monotone ? 0 : 1;
}
