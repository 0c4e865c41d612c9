#include "hw/fault.h"

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"
#include "hw/link.h"
#include "hw/nic.h"
#include "hw/topology.h"
#include "sim/engine.h"

namespace fcc::hw {

bool FaultSite::healthy() const {
  return nic != nullptr ? nic->healthy() : link->healthy();
}

void FaultPlan::validate(Topology& topo) const {
  const auto& sites = topo.fault_sites();
  TimeNs prev = 0;
  for (const FaultEvent& ev : events) {
    FCC_CHECK_MSG(ev.t >= prev,
                  "FaultPlan: events must be time-sorted, got t=" << ev.t
                      << " after t=" << prev);
    prev = ev.t;
    FCC_CHECK_MSG(ev.site >= 0 && ev.site < static_cast<int>(sites.size()),
                  "FaultPlan: site " << ev.site << " out of range for "
                      << topo.kind_name() << " (" << sites.size()
                      << " sites)");
    const FaultSite& s = sites[static_cast<std::size_t>(ev.site)];
    switch (ev.kind) {
      case FaultKind::kDead:
        FCC_CHECK_MSG(s.can_die, "FaultPlan: kDead targets derate-only site "
                                     << s.name);
        break;
      case FaultKind::kDerate:
        FCC_CHECK_MSG(ev.derate > 0.0 && ev.derate <= 1.0,
                      "FaultPlan: derate must be in (0, 1], got "
                          << ev.derate << " on " << s.name);
        break;
      case FaultKind::kJitter:
        FCC_CHECK_MSG(ev.jitter_ns >= 0,
                      "FaultPlan: jitter must be >= 0, got " << ev.jitter_ns
                          << " on " << s.name);
        break;
      case FaultKind::kRepair:
        break;
    }
  }
}

FaultPlan make_chaos_plan(Topology& topo, std::uint64_t seed,
                          const ChaosSpec& spec) {
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

  // Child stream: a caller seeding traffic generation with the same value
  // still gets an independent, reproducible fault stream.
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

void schedule_fault_plan(sim::Engine& engine, Topology& topo,
                         const FaultPlan& plan, TimeNs base) {
  FCC_CHECK_MSG(topo.engine_shards() == 1,
                "schedule_fault_plan: this " << topo.kind_name()
                    << " fabric is driven by " << topo.engine_shards()
                    << " engine shards; a scheduled fault would change its "
                       "route state from one shard while the others reserve "
                       "routes. Run fault plans on a serial machine "
                       "(Machine::Config::num_shards = 1)");
  plan.validate(topo);
  for (const FaultEvent& ev : plan.events) {
    engine.schedule_at(base + ev.t,
                       [&topo, ev] { topo.apply_fault(ev); });
  }
}

}  // namespace fcc::hw
