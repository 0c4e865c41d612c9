#include "hw/fault.h"

#include "common/check.h"
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
