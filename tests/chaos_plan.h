// Seeded random fault schedules for the chaos tests.
//
// A generator of hw::FaultPlans over a topology's fault sites: the tests
// replay them to check that chaos runs are deterministic and survivable.
// The simulator itself only applies plans (hw/fault.h).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "hw/fault.h"
#include "hw/topology.h"

namespace fcc::hw {

/// Knobs for `make_chaos_plan`. Defaults produce a survivable schedule
/// (derates + jitter, no kills) so serving chaos runs never partition.
struct ChaosSpec {
  int num_events = 4;
  TimeNs horizon_ns = 1'000'000;  // event times drawn uniform in [0, horizon)
  /// Fraction of events that kill a can_die site. Kills may partition a
  /// fabric with no redundant path — keep 0 unless the caller handles
  /// PartitionedFabricError.
  double kill_fraction = 0.0;
  double min_derate = 0.2;
  double max_derate = 0.9;
  TimeNs max_jitter_ns = 2000;
  /// Fraction of fault events that get a matching kRepair later in the
  /// horizon.
  double repair_fraction = 0.5;
};

/// Seeded random fault schedule over `topo`'s fault sites. Events are drawn
/// from a child stream forked off Rng(seed), so a caller sharing the seed
/// with traffic generation still gets independent, reproducible streams.
inline FaultPlan make_chaos_plan(Topology& topo, std::uint64_t seed,
                                 const ChaosSpec& spec = {}) {
  FCC_CHECK(spec.num_events >= 0);
  FCC_CHECK(spec.horizon_ns > 0);
  FCC_CHECK(spec.kill_fraction >= 0.0 && spec.kill_fraction <= 1.0);
  FCC_CHECK(spec.repair_fraction >= 0.0 && spec.repair_fraction <= 1.0);
  FCC_CHECK(spec.min_derate > 0.0 && spec.min_derate <= spec.max_derate &&
            spec.max_derate <= 1.0);
  const auto& sites = topo.fault_sites();
  FCC_CHECK_MSG(!sites.empty(), "make_chaos_plan: " << topo.kind_name()
                                                    << " has no fault sites");
  std::vector<int> killable;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    if (sites[i].can_die) killable.push_back(static_cast<int>(i));
  }

  Rng root(seed);
  Rng rng = root.fork();

  FaultPlan plan;
  for (int i = 0; i < spec.num_events; ++i) {
    FaultEvent ev;
    ev.t = static_cast<TimeNs>(
        rng.next_below(static_cast<std::uint64_t>(spec.horizon_ns)));
    const bool kill = !killable.empty() &&
                      rng.next_double() < spec.kill_fraction;
    if (kill) {
      ev.kind = FaultKind::kDead;
      ev.site = killable[rng.next_below(killable.size())];
    } else if (spec.max_jitter_ns > 0 && rng.next_double() < 0.5) {
      ev.kind = FaultKind::kJitter;
      ev.site = static_cast<int>(rng.next_below(sites.size()));
      ev.jitter_ns = rng.next_int(1, spec.max_jitter_ns);
    } else {
      ev.kind = FaultKind::kDerate;
      ev.site = static_cast<int>(rng.next_below(sites.size()));
      ev.derate = rng.next_double(spec.min_derate, spec.max_derate);
    }
    const bool repair = rng.next_double() < spec.repair_fraction;
    plan.events.push_back(ev);
    if (repair && ev.t + 1 < spec.horizon_ns) {
      FaultEvent fix;
      fix.kind = FaultKind::kRepair;
      fix.site = ev.site;
      fix.t = static_cast<TimeNs>(
          rng.next_int(ev.t + 1, spec.horizon_ns - 1));
      plan.events.push_back(fix);
    }
  }
  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.t < b.t;
                   });
  return plan;
}

}  // namespace fcc::hw
