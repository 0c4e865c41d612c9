// Topology layer: route resolution, cut-through reservation, the concrete
// fabrics (switched / multi-rail, whose one-rail case is the fully-connected
// node / torus), and Machine config validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "gpu/machine.h"
#include "hw/topology.h"
#include "shmem/world.h"
#include "sim/task.h"

namespace fcc {
namespace {

hw::FabricSpec fabric_80() {
  hw::FabricSpec s;
  s.port_bytes_per_ns = 80.0;
  s.latency_ns = 700;
  return s;
}

TEST(MultiRailTopology, OneRailInterNodeMatchesNicPostExactly) {
  hw::IbSpec ib;
  hw::MultiRailTopology topo(2, 1, /*rails=*/1, fabric_80(), ib);
  hw::Nic ref("ref", ib);
  EXPECT_EQ(topo.write_time(0, 1, 1 << 20, 0), ref.post(0, 1 << 20));
  EXPECT_EQ(topo.write_time(0, 1, 4096, 50), ref.post(50, 4096));
  EXPECT_EQ(topo.node_nic(0)->messages(), 2);
  EXPECT_EQ(topo.node_nic(1)->messages(), 0);  // dst NIC not charged
}

TEST(Topology, EveryHopCountsItsBytes) {
  // One write per route class on each fabric: every link the route
  // reserves reports the write's bytes, and an inter-node write posts one
  // NIC message.
  hw::SwitchedSpec switched;
  switched.trunk_bytes_per_ns = 200.0;
  hw::TorusSpec torus;
  torus.dim_x = 2;
  torus.dim_y = 2;
  std::vector<std::unique_ptr<hw::Topology>> fabrics;
  fabrics.push_back(std::make_unique<hw::MultiRailTopology>(
      4, 2, /*rails=*/1, fabric_80(), hw::IbSpec{}));
  fabrics.push_back(
      std::make_unique<hw::SwitchedTopology>(4, 2, switched, hw::IbSpec{}));
  fabrics.push_back(std::make_unique<hw::MultiRailTopology>(
      4, 2, /*rails=*/2, fabric_80(), hw::IbSpec{}));
  fabrics.push_back(std::make_unique<hw::TorusTopology>(torus, 2, fabric_80()));
  const Bytes bytes = 12345;
  // Self, intra-node and inter-node (node 0 to node 3: two torus hops).
  const std::pair<PeId, PeId> writes[] = {{1, 1}, {0, 1}, {1, 7}};
  for (auto& topo : fabrics) {
    for (const auto& [src, dst] : writes) {
      hw::Route r;
      topo->resolve(src, dst, r);
      std::vector<Bytes> before;
      for (const hw::Link* l : r.hops) before.push_back(l->total_bytes());
      const std::int64_t messages = r.nic ? r.nic->messages() : 0;
      const Bytes wire = r.nic ? r.nic->wire().total_bytes() : 0;
      topo->write_time(src, dst, bytes, 0);
      for (std::size_t h = 0; h < r.hops.size(); ++h) {
        EXPECT_EQ(r.hops[h]->total_bytes() - before[h], bytes)
            << topo->kind_name() << " " << r.hops[h]->name();
      }
      if (r.cls == hw::RouteClass::kInterNode && r.nic != nullptr) {
        EXPECT_EQ(r.nic->messages() - messages, 1) << topo->kind_name();
        EXPECT_EQ(r.nic->wire().total_bytes() - wire, bytes)
            << topo->kind_name();
      }
      if (r.cls == hw::RouteClass::kSelf) {
        EXPECT_TRUE(r.hops.empty());
        EXPECT_EQ(r.nic, nullptr);
      } else {
        EXPECT_FALSE(r.hops.empty() && r.nic == nullptr) << topo->kind_name();
      }
    }
  }
}

TEST(Topology, RouteClassification) {
  hw::MultiRailTopology topo(2, 4, /*rails=*/1, fabric_80(), {});
  EXPECT_EQ(topo.route_class(3, 3), hw::RouteClass::kSelf);
  EXPECT_EQ(topo.route_class(0, 3), hw::RouteClass::kIntraNode);
  EXPECT_EQ(topo.route_class(3, 4), hw::RouteClass::kInterNode);
  hw::Route r;
  topo.resolve(0, 3, r);
  EXPECT_EQ(r.cls, hw::RouteClass::kIntraNode);
  EXPECT_EQ(r.hops.size(), 2u);  // egress + ingress
  EXPECT_EQ(r.nic, nullptr);
  r.clear();
  topo.resolve(3, 4, r);
  EXPECT_EQ(r.cls, hw::RouteClass::kInterNode);
  EXPECT_NE(r.nic, nullptr);
}

TEST(SwitchedTopology, UncontendedTransferPaysTwoHopLatency) {
  hw::SwitchedSpec spec;
  spec.port_bytes_per_ns = 100.0;
  spec.hop_latency_ns = 300;
  hw::SwitchedTopology topo(1, 8, spec, {});
  // 10000 B at 100 B/ns = 100 ns serialization + 2 x 300 ns hops.
  EXPECT_EQ(topo.write_time(0, 5, 10000, 0), 100 + 600);
}

TEST(SwitchedTopology, DisjointPairsDoNotContendWithoutTrunk) {
  hw::SwitchedSpec spec;
  spec.port_bytes_per_ns = 100.0;
  spec.hop_latency_ns = 0;
  hw::SwitchedTopology topo(1, 8, spec, {});
  const TimeNs a = topo.write_time(0, 1, 10000, 0);
  const TimeNs b = topo.write_time(2, 3, 10000, 0);
  const TimeNs c = topo.write_time(4, 7, 10000, 0);
  EXPECT_EQ(a, b);
  EXPECT_EQ(b, c);  // ideal crossbar: 8 disjoint pairs, no contention
}

TEST(SwitchedTopology, SharedEndpointPortsSerialize) {
  hw::SwitchedSpec spec;
  spec.port_bytes_per_ns = 100.0;
  spec.hop_latency_ns = 0;
  hw::SwitchedTopology topo(1, 8, spec, {});
  const TimeNs a = topo.write_time(0, 1, 10000, 0);
  const TimeNs b = topo.write_time(0, 2, 10000, 0);  // same uplink
  EXPECT_EQ(b - a, 100);
  const TimeNs c = topo.write_time(3, 2, 10000, 0);  // 2's downlink busy
  EXPECT_EQ(c - b, 100);
}

TEST(SwitchedTopology, TrunkCapsAggregateBandwidth) {
  hw::SwitchedSpec spec;
  spec.port_bytes_per_ns = 100.0;
  spec.hop_latency_ns = 0;
  spec.trunk_bytes_per_ns = 200.0;  // half the 8-port aggregate
  hw::SwitchedTopology topo(1, 8, spec, {});
  // Four disjoint pairs, 10000 B each: ports alone would finish at 100 ns,
  // but the shared trunk serializes 40000 B at 200 B/ns = 200 ns total.
  TimeNs last = 0;
  for (int p = 0; p < 4; ++p) {
    last = std::max(last, topo.write_time(p, p + 4, 10000, 0));
  }
  EXPECT_GE(last, 200);
}

TEST(MultiRailTopology, RailsRemoveNicSerialization) {
  hw::IbSpec ib;  // 20 B/ns wire
  hw::MultiRailTopology single(2, 4, /*rails=*/1, fabric_80(), ib);
  hw::MultiRailTopology quad(2, 4, /*rails=*/4, fabric_80(), ib);
  // All four GPUs of node 0 send 1 MB cross-node at once.
  TimeNs single_done = 0, quad_done = 0;
  for (PeId src = 0; src < 4; ++src) {
    single_done = std::max(single_done, single.write_time(src, 4, 1 << 20, 0));
    quad_done = std::max(quad_done, quad.write_time(src, 4, 1 << 20, 0));
  }
  // One NIC serializes 4 MB; four rails move 1 MB each in parallel.
  EXPECT_GT(single_done, 3 * quad_done);
  // Rail affinity: each source GPU used its own rail.
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(quad.rail(0, r)->messages(), 1);
  }
}

TEST(TorusTopology, HopCountsAreDimensionOrderedShortest) {
  hw::TorusSpec spec;
  spec.dim_x = 4;
  spec.dim_y = 4;
  hw::TorusTopology topo(spec);
  EXPECT_EQ(topo.hop_count(0, 1), 1);   // +x neighbour
  EXPECT_EQ(topo.hop_count(0, 3), 1);   // wraparound -x
  EXPECT_EQ(topo.hop_count(0, 5), 2);   // (1,1)
  EXPECT_EQ(topo.hop_count(0, 10), 4);  // (2,2): worst case on 4x4
}

TEST(TorusTopology, RouteLatencyScalesWithHops) {
  hw::TorusSpec spec;
  spec.dim_x = 4;
  spec.dim_y = 4;
  spec.link_bytes_per_ns = 25.0;
  spec.link_latency_ns = 700;
  hw::TorusTopology topo(spec);
  // 1 hop: 1000 B / 25 B/ns = 40 ns + 700.
  EXPECT_EQ(topo.write_time(0, 1, 1000, 0), 740);
  // 4 hops from node 0 to node 10: same serialization + 4 x 700.
  hw::TorusTopology topo2(spec);
  EXPECT_EQ(topo2.write_time(0, 10, 1000, 0), 40 + 4 * 700);
}

TEST(TorusTopology, SharedRingLinksContend) {
  hw::TorusSpec spec;
  spec.dim_x = 8;
  spec.dim_y = 2;
  spec.link_latency_ns = 0;
  hw::TorusTopology topo(spec);
  // 0 -> 2 and 0 -> 1 both leave node 0 on the +x link.
  const TimeNs a = topo.write_time(0, 2, 25000, 0);
  const TimeNs b = topo.write_time(0, 1, 25000, 0);
  EXPECT_GT(b, 1000);  // queued behind the first transfer's first hop
  EXPECT_GT(a, 0);
}

TEST(TorusTopology, ShiftOrderStepsShareFewRingLinks) {
  // Resolves every step's 64 routes on 8x8: with odd-coloured sources
  // walking the mirrored shift, steps up to ring distance 2 are
  // link-disjoint and no step puts more than 2 routes on a directed link.
  // Uniform shifts (every source taking the same shift) summed to 146 over
  // the per-step maxima.
  hw::TorusSpec spec;
  spec.dim_x = 8;
  spec.dim_y = 8;
  hw::TorusTopology topo(spec);
  const int nodes = topo.num_nodes();
  std::vector<std::vector<NodeId>> orders;
  for (NodeId n = 0; n < nodes; ++n) orders.push_back(topo.shift_order(n));
  const auto ring = [](int d) { return std::min(d, 8 - d); };
  hw::Route route;
  int summed_max = 0;
  for (int k = 0; k + 1 < nodes; ++k) {
    const NodeId d0 = orders[0][static_cast<std::size_t>(k)];
    const int dist = std::max(ring(d0 % 8), ring(d0 / 8));
    std::map<const hw::Link*, int> routes_on;
    for (NodeId src = 0; src < nodes; ++src) {
      route.clear();
      topo.resolve(src, orders[static_cast<std::size_t>(src)]
                              [static_cast<std::size_t>(k)],
                   route);
      for (const hw::Link* l : route.hops) ++routes_on[l];
    }
    int step_max = 0;
    for (const auto& [link, n] : routes_on) step_max = std::max(step_max, n);
    EXPECT_LE(step_max, dist <= 2 ? 1 : 2) << "step " << k << " dist " << dist;
    summed_max += step_max;
  }
  EXPECT_EQ(summed_max, 102);
}

// --- Machine integration -------------------------------------------------

sim::Task one_put(shmem::World& w, PeId src, PeId dst, Bytes bytes,
                  TimeNs& delivered, sim::Engine& e) {
  co_await w.issue(src, dst, shmem::World::IssueKind::kRdma);
  w.put(src, dst, bytes, [&] { delivered = e.now(); });
  co_await w.quiet(src);
}

TEST(Machine, TorusTopologyRunsOnTheEventEngine) {
  // Scale-out torus traffic goes through the same issue/put/engine path as
  // every other fabric — no separate analytic world.
  gpu::Machine::Config mc;
  mc.num_nodes = 16;
  mc.gpus_per_node = 1;
  mc.topology.kind = hw::TopologySpec::Kind::kTorus2D;
  mc.topology.torus.dim_x = 4;
  mc.topology.torus.dim_y = 4;
  gpu::Machine m(mc);
  shmem::World w(m);
  TimeNs delivered = -1;
  one_put(w, 0, 10, 25000, delivered, m.engine());
  m.engine().run();
  // RDMA issue overhead + 4 hops x (1000 ns serialization cut-through is
  // joint, so one 1000 ns window) + 4 x 700 ns hop latency.
  const TimeNs issue = m.config().ib.gpu_post_overhead_ns;
  EXPECT_EQ(delivered, issue + 1000 + 4 * 700);
  EXPECT_EQ(m.route_class(0, 10), hw::RouteClass::kInterNode);
}

TEST(Machine, SwitchedTopologyEndToEnd) {
  gpu::Machine::Config mc;
  mc.num_nodes = 1;
  mc.gpus_per_node = 8;
  mc.topology.kind = hw::TopologySpec::Kind::kSwitchedNode;
  gpu::Machine m(mc);
  shmem::World w(m);
  TimeNs delivered = -1;
  one_put(w, 0, 7, 80000, delivered, m.engine());
  m.engine().run();
  const auto& sw = mc.topology.switched;
  const TimeNs issue = m.config().fabric.store_issue_overhead_ns;
  EXPECT_EQ(delivered,
            issue + static_cast<TimeNs>(80000 / sw.port_bytes_per_ns) +
                2 * sw.hop_latency_ns);
}

TEST(Machine, ConfigValidationRejectsNonPositiveValues) {
  gpu::Machine::Config bad;
  bad.num_nodes = 0;
  EXPECT_THROW(gpu::Machine{bad}, std::logic_error);

  bad = {};
  bad.gpus_per_node = -1;
  EXPECT_THROW(gpu::Machine{bad}, std::logic_error);

  bad = {};
  bad.gpu.hbm_bytes_per_ns = 0.0;
  EXPECT_THROW(gpu::Machine{bad}, std::logic_error);

  bad = {};
  bad.fabric.port_bytes_per_ns = -5.0;
  EXPECT_THROW(gpu::Machine{bad}, std::logic_error);

  bad = {};
  bad.ib.wire_bytes_per_ns = 0.0;
  EXPECT_THROW(gpu::Machine{bad}, std::logic_error);

  bad = {};
  bad.topology.kind = hw::TopologySpec::Kind::kMultiRail;
  bad.topology.nic_rails = 0;
  EXPECT_THROW(gpu::Machine{bad}, std::logic_error);

  bad = {};
  bad.num_nodes = 4;
  bad.gpus_per_node = 1;
  bad.topology.kind = hw::TopologySpec::Kind::kTorus2D;
  bad.topology.torus.dim_x = 2;  // 2x8 != 4 nodes
  EXPECT_THROW(gpu::Machine{bad}, std::logic_error);
}

TEST(Machine, FabricAccessorThrowsOnFabriclessTopology) {
  gpu::Machine::Config mc;
  mc.num_nodes = 1;
  mc.gpus_per_node = 8;
  mc.topology.kind = hw::TopologySpec::Kind::kSwitchedNode;
  gpu::Machine m(mc);
  EXPECT_THROW(m.fabric(0), std::logic_error);
}

}  // namespace
}  // namespace fcc
