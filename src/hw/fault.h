// Deterministic fault injection for hw topologies.
//
// A `FaultPlan` is a time-sorted list of `FaultEvent`s against named
// `FaultSite`s (links and NICs a `Topology` enumerates). Plans are applied
// two ways: immediately via `Topology::apply_fault` (tests, benches pinning
// a scenario), or scheduled onto a sim::Engine with `schedule_fault_plan`,
// where each event becomes an ordinary engine callback — chaos runs replay
// bit-identically because fault arrival is just another event in the
// deterministic (time, seq) order.
//
// Fault taxonomy (see docs/ARCHITECTURE.md "Fault model"):
//   kDead    component drops out; routes reroute where a legal alternative
//            exists (multi-rail -> surviving rails, torus -> detour), and
//            resolution throws PartitionedFabricError when none does.
//   kDerate  bandwidth multiplier in (0, 1] — an oversubscribed/browned-out
//            trunk. derate = 1.0 restores nominal bandwidth bit-exactly.
//   kJitter  added propagation latency on the component.
//   kRepair  full restore of the site to healthy.
//
// Healthy-path identity: a site at derate 1.0 / jitter 0 / alive computes
// byte-identical timings to a topology that never saw a FaultPlan (the
// derated bandwidth is stored pre-multiplied, and x * 1.0 == x, t + 0 == t
// in IEEE arithmetic) — asserted by tests/test_hw_fault.cc.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.h"

namespace fcc::sim {
class Engine;
}

namespace fcc::hw {

class Link;
class Nic;
class Topology;

enum class FaultKind {
  kDead,    // component drops out (can_die sites only)
  kDerate,  // wire bandwidth x `derate`
  kJitter,  // + `jitter_ns` propagation per message
  kRepair,  // restore the site to healthy
};

struct FaultEvent {
  TimeNs t = 0;  // plan-relative; schedule_fault_plan adds its base
  FaultKind kind = FaultKind::kDerate;
  int site = 0;          // index into Topology::fault_sites()
  double derate = 1.0;   // kDerate: multiplier in (0, 1]
  TimeNs jitter_ns = 0;  // kJitter

  bool operator==(const FaultEvent&) const = default;
};

struct FaultPlan {
  std::vector<FaultEvent> events;  // must be time-sorted

  static FaultPlan none() { return {}; }
  bool empty() const { return events.empty(); }

  /// FCC_CHECKs events are time-sorted, sites are in range, derates are in
  /// (0, 1], jitters non-negative, and kDead only targets can_die sites.
  void validate(Topology& topo) const;
};

/// One fault-capable component. Exactly one of `link` / `nic` is set; a NIC
/// site's derate/jitter apply to its wire, kDead drops the NIC whole.
struct FaultSite {
  std::string name;  // component name, stable across runs (bench keys)
  NodeId node = -1;
  Link* link = nullptr;
  Nic* nic = nullptr;
  /// False for sites that only ever derate/jitter (NIC wires: the NIC
  /// itself is the kill switch for that path).
  bool can_die = true;

  bool healthy() const;
};

/// Thrown by route resolution when no healthy path between the endpoints
/// exists (all rails dead, torus cut, dead switch trunk, dead node NIC).
class PartitionedFabricError : public std::runtime_error {
 public:
  PartitionedFabricError(const std::string& what, PeId src, PeId dst)
      : std::runtime_error(what), src_(src), dst_(dst) {}

  PeId src() const { return src_; }
  PeId dst() const { return dst_; }

 private:
  PeId src_;
  PeId dst_;
};

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
FaultPlan make_chaos_plan(Topology& topo, std::uint64_t seed,
                          const ChaosSpec& spec = {});

/// Schedules every event of `plan` at engine time `base + event.t` as a
/// plain engine callback applying the fault to `topo`. Both must outlive
/// the run. Validates the plan first, and throws if `topo` belongs to a
/// sharded machine (Topology::engine_shards() > 1).
void schedule_fault_plan(sim::Engine& engine, Topology& topo,
                         const FaultPlan& plan, TimeNs base);

}  // namespace fcc::hw
