// Fault injection & graceful degradation in the hw layer: multi-rail
// failover, torus detours, PartitionedFabricError on true partitions, the
// healthy-path byte-identity guarantee, chaos-plan determinism, the
// rejection of scheduled plans on sharded machines, and the ccl
// auto-selection fallback on a degraded fabric.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "ccl/communicator.h"
#include "chaos_plan.h"
#include "gpu/machine.h"
#include "hw/fault.h"
#include "hw/topology.h"
#include "sim/engine.h"
#include "sim/task.h"

namespace fcc::hw {
namespace {

FabricSpec fabric_80() {
  FabricSpec s;
  s.port_bytes_per_ns = 80.0;
  s.latency_ns = 700;
  return s;
}

FaultEvent kill(Topology& topo, const std::string& site, TimeNs t = 0) {
  const int idx = topo.fault_site_index(site);
  EXPECT_GE(idx, 0) << site;
  FaultEvent ev;
  ev.t = t;
  ev.kind = FaultKind::kDead;
  ev.site = idx;
  return ev;
}

FaultEvent derate(Topology& topo, const std::string& site, double f,
                  TimeNs t = 0) {
  const int idx = topo.fault_site_index(site);
  EXPECT_GE(idx, 0) << site;
  FaultEvent ev;
  ev.t = t;
  ev.kind = FaultKind::kDerate;
  ev.site = idx;
  ev.derate = f;
  return ev;
}

FaultEvent jitter(Topology& topo, const std::string& site, TimeNs j,
                  TimeNs t = 0) {
  const int idx = topo.fault_site_index(site);
  EXPECT_GE(idx, 0) << site;
  FaultEvent ev;
  ev.t = t;
  ev.kind = FaultKind::kJitter;
  ev.site = idx;
  ev.jitter_ns = j;
  return ev;
}

FaultEvent repair(Topology& topo, const std::string& site, TimeNs t = 0) {
  const int idx = topo.fault_site_index(site);
  EXPECT_GE(idx, 0) << site;
  FaultEvent ev;
  ev.t = t;
  ev.kind = FaultKind::kRepair;
  ev.site = idx;
  return ev;
}

TEST(FaultSites, EnumerationIsStableAndNamed) {
  MultiRailTopology topo(2, 4, 2, fabric_80(), {});
  const auto& sites = topo.fault_sites();
  // 2 nodes x 2 rails x (nic + wire).
  EXPECT_EQ(sites.size(), 8u);
  EXPECT_GE(topo.fault_site_index("node0.rail0"), 0);
  EXPECT_GE(topo.fault_site_index("node1.rail1.wire"), 0);
  EXPECT_EQ(topo.fault_site_index("nonexistent"), -1);
  EXPECT_FALSE(topo.has_faults());
  EXPECT_TRUE(topo.active_faults().empty());
}

TEST(FaultSites, NamesAreUniqueAndIndexTheirOwnSite) {
  // Bench scenario tables key faults by name and seeded chaos plans by
  // index: on every fabric each name must find its own site.
  using Kind = TopologySpec::Kind;
  for (const Kind kind : {Kind::kFullyConnected, Kind::kSwitchedNode,
                          Kind::kMultiRail, Kind::kTorus2D}) {
    TopologySpec spec;
    spec.kind = kind;
    spec.switched.trunk_bytes_per_ns = 300.0;
    spec.torus.dim_x = 2;
    spec.torus.dim_y = 2;
    const auto topo = make_topology(spec, 4, 2, fabric_80(), {});
    const auto& sites = topo->fault_sites();
    ASSERT_FALSE(sites.empty()) << topo->kind_name();
    std::set<std::string> names;
    for (std::size_t i = 0; i < sites.size(); ++i) {
      EXPECT_TRUE(names.insert(sites[i].name).second)
          << topo->kind_name() << " repeats " << sites[i].name;
      EXPECT_EQ(topo->fault_site_index(sites[i].name), static_cast<int>(i))
          << topo->kind_name() << " " << sites[i].name;
    }
    if (kind == Kind::kFullyConnected) {
      // One rail per node: each node's NIC, then its wire, node by node.
      std::vector<std::string> order;
      for (const FaultSite& site : sites) order.push_back(site.name);
      EXPECT_EQ(order, (std::vector<std::string>{
                           "node0.rail0", "node0.rail0.wire", "node1.rail0",
                           "node1.rail0.wire", "node2.rail0",
                           "node2.rail0.wire", "node3.rail0",
                           "node3.rail0.wire"}));
    }
  }
}

TEST(MultiRailFaults, DeadRailFailsOverToSurvivingRail) {
  MultiRailTopology topo(2, 4, 2, fabric_80(), {});
  Route r;
  topo.resolve(0, 4, r);  // pe0 (node0, local 0) -> node1: affinity rail0
  ASSERT_NE(r.nic, nullptr);
  EXPECT_EQ(r.nic->name(), "node0.rail0");

  topo.apply_fault(kill(topo, "node0.rail0"));
  EXPECT_TRUE(topo.has_faults());
  r.clear();
  topo.resolve(0, 4, r);
  ASSERT_NE(r.nic, nullptr);
  EXPECT_EQ(r.nic->name(), "node0.rail1");
  // write_time reserves the rerouted rail.
  EXPECT_GT(topo.write_time(0, 4, 4096, 0), 0);

  // Both rails dead: node0 cannot reach node1 at all.
  topo.apply_fault(kill(topo, "node0.rail1"));
  r.clear();
  EXPECT_THROW(topo.resolve(0, 4, r), PartitionedFabricError);
  EXPECT_THROW(topo.write_time(0, 4, 4096, 0), PartitionedFabricError);
  // node1's rails are fine: the reverse direction still routes.
  r.clear();
  topo.resolve(4, 0, r);
  EXPECT_EQ(r.nic->name(), "node1.rail0");

  // Repair restores affinity routing.
  topo.apply_fault(repair(topo, "node0.rail0"));
  r.clear();
  topo.resolve(0, 4, r);
  EXPECT_EQ(r.nic->name(), "node0.rail0");
}

TEST(MultiRailFaults, PartitionedErrorCarriesEndpoints) {
  MultiRailTopology topo(2, 1, 1, fabric_80(), {});
  topo.apply_fault(kill(topo, "node0.rail0"));
  Route r;
  try {
    topo.resolve(0, 1, r);
    FAIL() << "expected PartitionedFabricError";
  } catch (const PartitionedFabricError& e) {
    EXPECT_EQ(e.src(), 0);
    EXPECT_EQ(e.dst(), 1);
    EXPECT_NE(std::string(e.what()).find("node0"), std::string::npos);
  }
}

TEST(TorusFaults, DeadLinkTakesDetour) {
  TorusSpec spec;
  spec.dim_x = 4;
  spec.dim_y = 2;
  TorusTopology topo(spec);

  Route r;
  topo.resolve(0, 1, r);  // (0,0) -> (1,0): one +x hop
  ASSERT_EQ(r.hops.size(), 1u);
  EXPECT_EQ(r.hops[0]->name(), "node0.+x");

  topo.apply_fault(kill(topo, "node0.+x"));
  r.clear();
  topo.resolve(0, 1, r);
  // Shortest surviving path is 3 hops (the -x way around the row ring or
  // over the other row); it must avoid the dead link.
  EXPECT_EQ(r.hops.size(), 3u);
  for (const Link* hop : r.hops) EXPECT_NE(hop->name(), "node0.+x");
  EXPECT_EQ(r.latency_ns, 3 * spec.link_latency_ns);

  // Repair: back to the single-hop dimension-ordered route.
  topo.apply_fault(repair(topo, "node0.+x"));
  r.clear();
  topo.resolve(0, 1, r);
  EXPECT_EQ(r.hops.size(), 1u);
  EXPECT_EQ(r.hops[0]->name(), "node0.+x");
}

TEST(TorusFaults, FullyCutNodePartitionsOutboundOnly) {
  TorusSpec spec;
  spec.dim_x = 4;
  spec.dim_y = 2;
  TorusTopology topo(spec);
  // Kill every egress of node0; its ingress links (owned by neighbours)
  // survive, so traffic *into* node0 still routes.
  for (const char* site : {"node0.+x", "node0.-x", "node0.+y", "node0.-y"}) {
    topo.apply_fault(kill(topo, site));
  }
  Route r;
  EXPECT_THROW(topo.resolve(0, 1, r), PartitionedFabricError);
  r.clear();
  topo.resolve(1, 0, r);
  EXPECT_GE(r.hops.size(), 1u);
}

TEST(TorusFaults, DetourCacheInvalidatesOnHealthChange) {
  TorusSpec spec;
  spec.dim_x = 4;
  spec.dim_y = 2;
  TorusTopology topo(spec);
  topo.apply_fault(kill(topo, "node0.+x"));
  Route r;
  topo.resolve(0, 1, r);
  EXPECT_EQ(r.hops.size(), 3u);
  // A second fault elsewhere must invalidate the cached detour (the cache
  // is per fault epoch); killing the detour's first hop forces a new path.
  const std::string first_hop = r.hops[0]->name();
  topo.apply_fault(kill(topo, first_hop));
  r.clear();
  topo.resolve(0, 1, r);
  for (const Link* hop : r.hops) {
    EXPECT_NE(hop->name(), "node0.+x");
    EXPECT_NE(hop->name(), first_hop);
  }
}

TEST(SwitchedFaults, TrunkDerateSlowsAndJitterShifts) {
  SwitchedSpec sw;
  sw.trunk_bytes_per_ns = 300.0;
  const Bytes bytes = 1 << 20;

  SwitchedTopology healthy(1, 8, sw, {});
  const TimeNs base = healthy.write_time(0, 1, bytes, 0);

  SwitchedTopology derated(1, 8, sw, {});
  derated.apply_fault(derate(derated, "node0.trunk", 0.25));
  EXPECT_GT(derated.write_time(0, 1, bytes, 0), base);

  SwitchedTopology jittered(1, 8, sw, {});
  jittered.apply_fault(jitter(jittered, "node0.trunk", 500));
  EXPECT_EQ(jittered.write_time(0, 1, bytes, 0), base + 500);
}

TEST(OneRailFaults, DeadNicPartitionsInterNodeOnly) {
  MultiRailTopology topo(2, 2, /*rails=*/1, fabric_80(), {});
  topo.apply_fault(kill(topo, "node0.rail0"));
  EXPECT_THROW(topo.write_time(0, 2, 4096, 0), PartitionedFabricError);
  Route r;
  EXPECT_THROW(topo.resolve(0, 2, r), PartitionedFabricError);
  // Intra-node and the other node's NIC are untouched.
  EXPECT_GT(topo.write_time(0, 1, 4096, 0), 0);
  EXPECT_GT(topo.write_time(2, 0, 4096, 0), 0);
}

TEST(FaultModel, HealthyIdentityEventsAreByteIdentical) {
  // derate(1.0), jitter(0), and derate-then-repair are arithmetic
  // identities: a topology that saw them times every transfer byte-for-byte
  // like one that never saw a FaultPlan — stateful link horizons included.
  MultiRailTopology a(2, 2, /*rails=*/1, fabric_80(), {});
  MultiRailTopology b(2, 2, /*rails=*/1, fabric_80(), {});
  b.apply_fault(derate(b, "node0.rail0.wire", 1.0));
  b.apply_fault(jitter(b, "node1.rail0.wire", 0));
  b.apply_fault(derate(b, "node0.rail0.wire", 0.5));
  b.apply_fault(repair(b, "node0.rail0.wire"));
  EXPECT_FALSE(b.has_faults());
  const PeId pairs[][2] = {{0, 2}, {0, 1}, {2, 0}, {3, 1}, {1, 3}, {0, 2}};
  TimeNs ready = 0;
  for (const auto& p : pairs) {
    const TimeNs ta = a.write_time(p[0], p[1], 123457, ready);
    const TimeNs tb = b.write_time(p[0], p[1], 123457, ready);
    EXPECT_EQ(ta, tb);
    ready = ta / 2;
  }
}

TEST(ChaosPlan, SeededAndDeterministic) {
  MultiRailTopology topo(2, 4, 2, fabric_80(), {});
  ChaosSpec spec;
  spec.num_events = 8;
  const FaultPlan p1 = make_chaos_plan(topo, 42, spec);
  const FaultPlan p2 = make_chaos_plan(topo, 42, spec);
  EXPECT_EQ(p1.events, p2.events);
  const FaultPlan p3 = make_chaos_plan(topo, 43, spec);
  EXPECT_NE(p1.events, p3.events);
  EXPECT_GE(p1.events.size(), 8u);  // repairs may add more
  p1.validate(topo);
  // Default spec never kills (survivable schedules for serving chaos).
  for (const FaultEvent& ev : p1.events) {
    EXPECT_NE(ev.kind, FaultKind::kDead);
  }
}

TEST(ChaosPlan, ScheduledPlanAppliesAtEventTimes) {
  sim::Engine engine;
  MultiRailTopology topo(2, 4, 2, fabric_80(), {});
  FaultPlan plan;
  plan.events.push_back(derate(topo, "node0.rail0.wire", 0.5, 100));
  plan.events.push_back(repair(topo, "node0.rail0.wire", 300));
  schedule_fault_plan(engine, topo, plan, 0);
  EXPECT_FALSE(topo.has_faults());
  engine.run();
  EXPECT_FALSE(topo.has_faults());  // repaired by the end
  EXPECT_EQ(topo.fault_epoch(), 2u);
}

TEST(ChaosPlan, ShardedMachineRejectsScheduledPlan) {
  for (const auto kind :
       {TopologySpec::Kind::kFullyConnected, TopologySpec::Kind::kTorus2D}) {
    gpu::Machine::Config mc;
    mc.num_nodes = 4;
    mc.gpus_per_node = 1;
    mc.topology.kind = kind;
    mc.topology.torus.dim_x = 2;
    mc.topology.torus.dim_y = 2;
    const FaultPlan plan = [&] {
      gpu::Machine serial(mc);
      return make_chaos_plan(serial.topology(), 7);
    }();
    ASSERT_FALSE(plan.empty());

    mc.num_shards = 2;
    gpu::Machine sharded(mc);
    try {
      schedule_fault_plan(sharded.engine(), sharded.topology(), plan, 0);
      ADD_FAILURE() << "fault plan accepted on a sharded "
                    << sharded.topology().kind_name();
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("num_shards = 1"),
                std::string::npos)
          << e.what();
    }
    sharded.run_all(1);
    EXPECT_EQ(sharded.topology().fault_epoch(), 0u);  // nothing scheduled

    mc.num_shards = 1;
    gpu::Machine serial(mc);
    schedule_fault_plan(serial.engine(), serial.topology(), plan, 0);
    serial.run_all(1);
    EXPECT_GT(serial.topology().fault_epoch(), 0u);
  }
}

}  // namespace
}  // namespace fcc::hw

namespace fcc::ccl {
namespace {

std::vector<PeId> all_pes(gpu::Machine& m) {
  std::vector<PeId> v;
  for (int i = 0; i < m.num_pes(); ++i) v.push_back(i);
  return v;
}

sim::Task run_all_reduce(Communicator& comm, std::int64_t n_elems,
                         TimeNs& done) {
  co_await comm.all_reduce(n_elems, FloatBufs{});
  done = comm.machine().engine().now();
}

TEST(DegradedCollectives, DeadRailDropsHierarchyAndRecovers) {
  gpu::Machine::Config mc;
  mc.num_nodes = 2;
  mc.gpus_per_node = 4;
  mc.topology.kind = hw::TopologySpec::Kind::kMultiRail;
  mc.topology.nic_rails = 2;
  gpu::Machine m(mc);
  const std::vector<PeId> pes = all_pes(m);
  Communicator comm(m, pes);
  hw::Topology& topo = m.topology();
  EXPECT_EQ(comm.select_allreduce(), AllReduceAlgo::kHierarchical);
  EXPECT_TRUE(topo.degraded_components(pes).empty());

  hw::FaultEvent ev;
  ev.kind = hw::FaultKind::kDead;
  ev.site = topo.fault_site_index("node0.rail0");
  ASSERT_GE(ev.site, 0);
  topo.apply_fault(ev);

  EXPECT_EQ(comm.select_allreduce(), AllReduceAlgo::kTwoPhaseDirect);
  EXPECT_EQ(topo.degraded_components(pes),
            std::vector<std::string>{"node0.rail0"});

  // kAuto must complete on the degraded fabric: the flat algorithm's writes
  // fail over to the surviving rail instead of throwing.
  TimeNs done = 0;
  run_all_reduce(comm, 1 << 16, done);
  m.engine().run();
  EXPECT_GT(done, 0);

  ev.kind = hw::FaultKind::kRepair;
  topo.apply_fault(ev);
  EXPECT_EQ(comm.select_allreduce(), AllReduceAlgo::kHierarchical);
  EXPECT_TRUE(topo.degraded_components(pes).empty());
}

TEST(DegradedCollectives, DeadTorusLinkBetweenMemberNodesDropsHierarchy) {
  // A 5x1 torus ring, 2 GPUs per node; the communicator spans nodes 0 and
  // 2, whose dimension-ordered route runs +x through node 1. Killing node
  // 1's +x link leaves every member node's own links healthy: only the
  // ideal-route casualty walk can see the fault (the degraded route
  // detours the other way round the ring).
  gpu::Machine::Config mc;
  mc.num_nodes = 5;
  mc.gpus_per_node = 2;
  mc.topology.kind = hw::TopologySpec::Kind::kTorus2D;
  mc.topology.torus.dim_x = 5;
  mc.topology.torus.dim_y = 1;
  gpu::Machine m(mc);
  const std::vector<PeId> pes = {0, 1, 4, 5};
  Communicator comm(m, pes);
  ASSERT_TRUE(comm.hierarchy_eligible());
  EXPECT_EQ(comm.select_allreduce(), AllReduceAlgo::kHierarchical);

  hw::Topology& topo = m.topology();
  hw::FaultEvent ev;
  ev.kind = hw::FaultKind::kDead;
  ev.site = topo.fault_site_index("node1.+x");
  ASSERT_GE(ev.site, 0);
  topo.apply_fault(ev);

  EXPECT_EQ(topo.degraded_components(pes),
            std::vector<std::string>{"node1.+x"});
  EXPECT_EQ(comm.select_allreduce(), AllReduceAlgo::kTwoPhaseDirect);
  TimeNs done = 0;
  run_all_reduce(comm, 1 << 16, done);
  m.engine().run();
  EXPECT_GT(done, 0);

  ev.kind = hw::FaultKind::kRepair;
  topo.apply_fault(ev);
  EXPECT_TRUE(topo.degraded_components(pes).empty());
  EXPECT_EQ(comm.select_allreduce(), AllReduceAlgo::kHierarchical);
}

TEST(DegradedCollectives, DeratedWireAlsoDropsHierarchy) {
  gpu::Machine::Config mc;
  mc.num_nodes = 2;
  mc.gpus_per_node = 4;
  gpu::Machine m(mc);  // fully-connected default
  const std::vector<PeId> pes = all_pes(m);
  Communicator comm(m, pes);
  EXPECT_EQ(comm.select_allreduce(), AllReduceAlgo::kHierarchical);

  hw::Topology& topo = m.topology();
  hw::FaultEvent ev;
  ev.kind = hw::FaultKind::kDerate;
  ev.site = topo.fault_site_index("node1.rail0.wire");
  ev.derate = 0.3;
  ASSERT_GE(ev.site, 0);
  topo.apply_fault(ev);

  EXPECT_EQ(comm.select_allreduce(), AllReduceAlgo::kTwoPhaseDirect);
  // The wire's ill-health surfaces through its owning NIC site
  // ("node1.rail0"); either spelling identifies the degraded component.
  const std::vector<std::string> avoided = topo.degraded_components(pes);
  ASSERT_FALSE(avoided.empty());
  EXPECT_EQ(avoided[0].rfind("node1", 0), 0u);
}

}  // namespace
}  // namespace fcc::ccl
