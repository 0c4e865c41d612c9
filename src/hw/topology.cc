#include "hw/topology.h"

#include <algorithm>
#include <string>
#include <utility>

namespace fcc::hw {

TimeNs Topology::reserve(const Route& route, Bytes bytes, TimeNs ready) {
  // Scale-up hops come before the NIC in every fabric here (e.g. a
  // switched node's uplink feeds the node NIC), so reserve them first;
  // the NIC then serializes the message off-node.
  TimeNs t = ready;
  if (!route.hops.empty()) {
    t = reserve_cut_through(route.hops, bytes, t, route.latency_ns);
  } else {
    t += route.latency_ns;
  }
  if (route.nic != nullptr) t = route.nic->post(t, bytes);
  return t;
}

std::vector<NodeId> Topology::shift_order(NodeId self) const {
  std::vector<NodeId> order;
  order.reserve(static_cast<std::size_t>(num_nodes_ - 1));
  for (int k = 1; k < num_nodes_; ++k) order.push_back((self + k) % num_nodes_);
  return order;
}

TimeNs Topology::write_time(PeId src, PeId dst, Bytes bytes, TimeNs ready) {
  Route& r = scratch();
  r.clear();
  resolve(src, dst, r);
  return reserve(r, bytes, ready);
}

Route& Topology::scratch() {
  static thread_local Route r;
  return r;
}

// ---------------------------------------------------------------------------
// Fault injection & health (hw/fault.h)

const std::vector<FaultSite>& Topology::fault_sites() {
  if (!sites_built_) {
    collect_fault_sites(sites_);
    sites_built_ = true;
  }
  return sites_;
}

int Topology::fault_site_index(const std::string& name) {
  const auto& sites = fault_sites();
  for (std::size_t i = 0; i < sites.size(); ++i) {
    if (sites[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

void Topology::apply_fault(const FaultEvent& ev) {
  fault_sites();  // ensure built
  FCC_CHECK_MSG(ev.site >= 0 && ev.site < static_cast<int>(sites_.size()),
                kind_name() << ": fault site " << ev.site
                            << " out of range (have " << sites_.size()
                            << ")");
  FaultSite& s = sites_[static_cast<std::size_t>(ev.site)];
  // Derate/jitter against a NIC site land on its wire.
  Link* wire = s.link != nullptr ? s.link : &s.nic->wire_mutable();
  switch (ev.kind) {
    case FaultKind::kDead:
      FCC_CHECK_MSG(s.can_die, "fault site " << s.name
                                             << " cannot be killed (derate/"
                                                "jitter-only site)");
      if (s.nic != nullptr) {
        s.nic->set_dead(true);
      } else {
        s.link->set_dead(true);
      }
      break;
    case FaultKind::kDerate:
      wire->set_derate(ev.derate);
      break;
    case FaultKind::kJitter:
      wire->set_jitter(ev.jitter_ns);
      break;
    case FaultKind::kRepair:
      if (s.nic != nullptr) s.nic->set_dead(false);
      wire->restore();
      break;
  }
  faulted_ = 0;
  for (const FaultSite& site : sites_) {
    if (!site.healthy()) ++faulted_;
  }
  ++fault_epoch_;
  faults_changed();
}

void Topology::guard_route(PeId src, PeId dst, Route& route) const {
  for (const Link* hop : route.hops) {
    if (hop->dead()) {
      throw PartitionedFabricError(
          "route pe" + std::to_string(src) + " -> pe" + std::to_string(dst) +
              " crosses dead link " + hop->name() + " (no alternative path)",
          src, dst);
    }
    route.latency_ns += hop->jitter_ns();
  }
  if (route.nic != nullptr && route.nic->dead()) {
    throw PartitionedFabricError(
        "route pe" + std::to_string(src) + " -> pe" + std::to_string(dst) +
            " needs dead NIC " + route.nic->name(),
        src, dst);
  }
}

namespace {

/// Pure propagation floor of a resolved route: hop latencies plus, when the
/// route exits through a NIC, its descriptor-processing and wire latency.
/// Serialization (queueing, occupancy) only ever adds on top of this.
TimeNs route_latency_floor(const Route& r) {
  TimeNs lat = r.latency_ns;
  if (r.nic != nullptr) {
    lat += r.nic->spec().per_msg_proc_ns + r.nic->spec().wire_latency_ns;
  }
  return lat;
}

}  // namespace

TimeNs Topology::min_inter_shard_latency(const std::vector<int>& node_shard) {
  FCC_CHECK_MSG(static_cast<int>(node_shard.size()) == num_nodes(),
                "min_inter_shard_latency: partition covers "
                    << node_shard.size() << " nodes, topology has "
                    << num_nodes());
  TimeNs cross_min = -1;
  TimeNs any_min = -1;
  Route& r = scratch();
  for (NodeId a = 0; a < num_nodes(); ++a) {
    for (NodeId b = 0; b < num_nodes(); ++b) {
      if (a == b) continue;
      r.clear();
      resolve(a * gpus_per_node(), b * gpus_per_node(), r);
      const TimeNs lat = route_latency_floor(r);
      if (any_min < 0 || lat < any_min) any_min = lat;
      if (node_shard[static_cast<std::size_t>(a)] !=
              node_shard[static_cast<std::size_t>(b)] &&
          (cross_min < 0 || lat < cross_min)) {
        cross_min = lat;
      }
    }
  }
  FCC_CHECK_MSG(any_min >= 0,
                "min_inter_shard_latency needs >= 2 nodes, topology has "
                    << num_nodes());
  return cross_min >= 0 ? cross_min : any_min;
}

// ---------------------------------------------------------------------------
// SwitchedTopology

SwitchedTopology::SwitchedTopology(int num_nodes, int gpus_per_node,
                                   const SwitchedSpec& spec, const IbSpec& ib)
    : Topology(num_nodes, gpus_per_node), spec_(spec) {
  spec.validate();
  FCC_CHECK_MSG(ib.wire_bytes_per_ns > 0,
                "IbSpec: wire bandwidth must be positive, got "
                    << ib.wire_bytes_per_ns);
  const int pes = num_pes();
  up_.reserve(static_cast<std::size_t>(pes));
  down_.reserve(static_cast<std::size_t>(pes));
  for (PeId pe = 0; pe < pes; ++pe) {
    up_.push_back(std::make_unique<Link>("gpu" + std::to_string(pe) + ".up",
                                         spec.port_bytes_per_ns,
                                         /*latency_ns=*/0));
    down_.push_back(std::make_unique<Link>(
        "gpu" + std::to_string(pe) + ".down", spec.port_bytes_per_ns,
        /*latency_ns=*/0));
  }
  trunk_.reserve(static_cast<std::size_t>(num_nodes));
  nics_.reserve(static_cast<std::size_t>(num_nodes));
  for (NodeId n = 0; n < num_nodes; ++n) {
    trunk_.push_back(
        spec.trunk_bytes_per_ns > 0
            ? std::make_unique<Link>("node" + std::to_string(n) + ".trunk",
                                     spec.trunk_bytes_per_ns,
                                     /*latency_ns=*/0)
            : nullptr);
    nics_.push_back(std::make_unique<Nic>("node" + std::to_string(n), ib));
  }
}

void SwitchedTopology::resolve(PeId src, PeId dst, Route& route) {
  route.cls = route_class(src, dst);
  switch (route.cls) {
    case RouteClass::kSelf:
      break;
    case RouteClass::kIntraNode: {
      route.hops.push_back(up_[static_cast<std::size_t>(src)].get());
      if (Link* t = trunk_[static_cast<std::size_t>(node_of(src))].get()) {
        route.hops.push_back(t);
      }
      route.hops.push_back(down_[static_cast<std::size_t>(dst)].get());
      route.latency_ns = 2 * spec_.hop_latency_ns;
      break;
    }
    case RouteClass::kInterNode:
      // Source uplink into the switch, then out through the node NIC.
      route.hops.push_back(up_[static_cast<std::size_t>(src)].get());
      route.latency_ns = spec_.hop_latency_ns;
      route.nic = nics_[static_cast<std::size_t>(node_of(src))].get();
      break;
  }
  if (has_faults()) guard_route(src, dst, route);
}

void SwitchedTopology::collect_fault_sites(std::vector<FaultSite>& out) {
  // Per-GPU switch ports (a dead downlink isolates that GPU's ingress), the
  // shared trunk when modelled, and the node NIC + wire.
  for (PeId pe = 0; pe < num_pes(); ++pe) {
    const NodeId n = node_of(pe);
    out.push_back({up_[static_cast<std::size_t>(pe)]->name(), n,
                   up_[static_cast<std::size_t>(pe)].get(), nullptr,
                   /*can_die=*/true});
    out.push_back({down_[static_cast<std::size_t>(pe)]->name(), n,
                   down_[static_cast<std::size_t>(pe)].get(), nullptr,
                   /*can_die=*/true});
  }
  for (NodeId n = 0; n < num_nodes(); ++n) {
    if (Link* t = trunk_[static_cast<std::size_t>(n)].get()) {
      out.push_back({t->name(), n, t, nullptr, /*can_die=*/true});
    }
    Nic* nic = nics_[static_cast<std::size_t>(n)].get();
    out.push_back({nic->name(), n, nullptr, nic, /*can_die=*/true});
    out.push_back({nic->wire().name(), n, &nic->wire_mutable(), nullptr,
                   /*can_die=*/false});
  }
}

// ---------------------------------------------------------------------------
// MultiRailTopology

MultiRailTopology::MultiRailTopology(int num_nodes, int gpus_per_node,
                                     int rails, const FabricSpec& fabric,
                                     const IbSpec& ib)
    : Topology(num_nodes, gpus_per_node), rails_(rails) {
  FCC_CHECK_MSG(rails >= 1, "MultiRailTopology: nic_rails must be >= 1, got "
                                << rails);
  FCC_CHECK_MSG(fabric.port_bytes_per_ns > 0,
                "FabricSpec: port bandwidth must be positive, got "
                    << fabric.port_bytes_per_ns);
  FCC_CHECK_MSG(ib.wire_bytes_per_ns > 0,
                "IbSpec: wire bandwidth must be positive, got "
                    << ib.wire_bytes_per_ns);
  fabrics_.reserve(static_cast<std::size_t>(num_nodes));
  nics_.reserve(static_cast<std::size_t>(num_nodes) *
                static_cast<std::size_t>(rails));
  for (NodeId n = 0; n < num_nodes; ++n) {
    fabrics_.push_back(std::make_unique<Fabric>(gpus_per_node, fabric));
    for (int r = 0; r < rails; ++r) {
      nics_.push_back(std::make_unique<Nic>(
          "node" + std::to_string(n) + ".rail" + std::to_string(r), ib));
    }
  }
  affinity_.reserve(static_cast<std::size_t>(num_pes()));
  for (PeId pe = 0; pe < num_pes(); ++pe) {
    affinity_.push_back(rail(node_of(pe), local_index(pe) % rails));
  }
}

void MultiRailTopology::resolve(PeId src, PeId dst, Route& route) {
  route.cls = route_class(src, dst);
  switch (route.cls) {
    case RouteClass::kSelf:
      break;
    case RouteClass::kIntraNode:
      add_fabric_hops(*fabrics_[static_cast<std::size_t>(node_of(src))], src,
                      dst, route);
      break;
    case RouteClass::kInterNode:
      route.nic = has_faults() ? alive_rail(src, dst)
                               : affinity_[static_cast<std::size_t>(src)];
      break;
  }
}

Nic* MultiRailTopology::alive_rail(PeId src, PeId dst) {
  const NodeId node = node_of(src);
  const int base = local_index(src) % rails_;
  for (int k = 0; k < rails_; ++k) {
    Nic* cand = rail(node, (base + k) % rails_);
    if (!cand->dead()) return cand;
  }
  throw PartitionedFabricError(
      "route pe" + std::to_string(src) + " -> pe" + std::to_string(dst) +
          ": all " + std::to_string(rails_) + " rails of node" +
          std::to_string(node) + " are dead",
      src, dst);
}

void MultiRailTopology::collect_fault_sites(std::vector<FaultSite>& out) {
  // Rails are the canonical redundant component: killing one exercises
  // failover onto the surviving rails, killing all partitions the node.
  for (NodeId n = 0; n < num_nodes(); ++n) {
    for (int r = 0; r < rails_; ++r) {
      Nic* nic = rail(n, r);
      out.push_back({nic->name(), n, nullptr, nic, /*can_die=*/true});
      out.push_back({nic->wire().name(), n, &nic->wire_mutable(), nullptr,
                     /*can_die=*/false});
    }
  }
}

// ---------------------------------------------------------------------------
// TorusTopology

TorusTopology::TorusTopology(const TorusSpec& spec, int gpus_per_node,
                             const FabricSpec& fabric)
    : Topology(spec.num_nodes(), gpus_per_node), spec_(spec) {
  spec.validate();
  const int nodes = spec.num_nodes();
  links_.reserve(static_cast<std::size_t>(nodes) * 4);
  static const char* kDirName[] = {"+x", "-x", "+y", "-y"};
  for (NodeId n = 0; n < nodes; ++n) {
    for (int d = 0; d < 4; ++d) {
      // A 1-wide dimension has no ring; keep the slot null-free by
      // allocating anyway (it is simply never routed over).
      links_.push_back(std::make_unique<Link>(
          "node" + std::to_string(n) + "." + kDirName[d],
          spec.link_bytes_per_ns, /*latency_ns=*/0));
    }
  }
  if (gpus_per_node > 1) {
    FCC_CHECK_MSG(fabric.port_bytes_per_ns > 0,
                  "FabricSpec: port bandwidth must be positive, got "
                      << fabric.port_bytes_per_ns);
    fabrics_.reserve(static_cast<std::size_t>(nodes));
    for (NodeId n = 0; n < nodes; ++n) {
      fabrics_.push_back(std::make_unique<Fabric>(gpus_per_node, fabric));
    }
  }
}

namespace {

/// Signed shortest-direction step count around a ring of size `n` from `a`
/// to `b`: positive means walk +, negative walk -. Distance-n/2 ties split
/// by source parity so uniform traffic loads both directions evenly.
int ring_steps(int a, int b, int n, int tie_parity) {
  int fwd = b - a;
  if (fwd < 0) fwd += n;
  const int bwd = n - fwd;
  if (fwd < bwd) return fwd;
  if (bwd < fwd) return -bwd;
  return (tie_parity % 2 == 0) ? fwd : -bwd;  // fwd == bwd == n/2
}

/// Walks the dimension-ordered route from node `sn` to `dn`, calling
/// fn(node, dir) for each hop taken (dir: 0=+x, 1=-x, 2=+y, 3=-y). Tie
/// parity is always the source node's x+y, matching the historical route
/// choice regardless of dimension order; `x_first=false` gives the y-then-x
/// mirror the degraded router tries as its first detour.
template <typename Fn>
void dor_walk(const TorusSpec& spec, NodeId sn, NodeId dn, bool x_first,
              Fn&& fn) {
  int x = sn % spec.dim_x, y = sn / spec.dim_x;
  const int dx = dn % spec.dim_x, dy = dn / spec.dim_x;
  const int parity = x + y;
  auto walk_x = [&] {
    int steps = ring_steps(x, dx, spec.dim_x, parity);
    while (steps != 0) {
      const int dir = steps > 0 ? 0 : 1;  // +x / -x
      fn(static_cast<NodeId>(y * spec.dim_x + x), dir);
      x = (x + (steps > 0 ? 1 : spec.dim_x - 1)) % spec.dim_x;
      steps += steps > 0 ? -1 : 1;
    }
  };
  auto walk_y = [&] {
    int steps = ring_steps(y, dy, spec.dim_y, parity);
    while (steps != 0) {
      const int dir = steps > 0 ? 2 : 3;  // +y / -y
      fn(static_cast<NodeId>(y * spec.dim_x + x), dir);
      y = (y + (steps > 0 ? 1 : spec.dim_y - 1)) % spec.dim_y;
      steps += steps > 0 ? -1 : 1;
    }
  };
  if (x_first) {
    walk_x();
    walk_y();
  } else {
    walk_y();
    walk_x();
  }
}

}  // namespace

int TorusTopology::hop_count(NodeId src, NodeId dst) const {
  const int sx = node_x(src), sy = node_y(src);
  const int dx = node_x(dst), dy = node_y(dst);
  const int hx = std::abs(ring_steps(sx, dx, spec_.dim_x, sx + sy));
  const int hy = std::abs(ring_steps(sy, dy, spec_.dim_y, sx + sy));
  return hx + hy;
}

std::vector<NodeId> TorusTopology::shift_order(NodeId self) const {
  const int nx = spec_.dim_x, ny = spec_.dim_y;
  const int x = node_x(self), y = node_y(self);
  const bool mirrored = (x + y) % 2 == 1;
  const auto dist = [](int d, int n) { return std::min(d, n - d); };
  std::vector<std::pair<int, NodeId>> shifts;  // (max ring distance, dest)
  shifts.reserve(static_cast<std::size_t>(nx * ny - 1));
  for (int dy = 0; dy < ny; ++dy) {
    for (int dx = dy == 0 ? 1 : 0; dx < nx; ++dx) {
      const int sx = mirrored ? nx - dx : dx, sy = mirrored ? ny - dy : dy;
      shifts.emplace_back(std::max(dist(dx, nx), dist(dy, ny)),
                          node_at((x + sx) % nx, (y + sy) % ny));
    }
  }
  std::stable_sort(
      shifts.begin(), shifts.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<NodeId> order;
  order.reserve(shifts.size());
  for (const auto& s : shifts) order.push_back(s.second);
  return order;
}

void TorusTopology::resolve(PeId src, PeId dst, Route& route) {
  route.cls = route_class(src, dst);
  switch (route.cls) {
    case RouteClass::kSelf:
      break;
    case RouteClass::kIntraNode:
      FCC_CHECK_MSG(!fabrics_.empty(),
                    "torus intra-node route with gpus_per_node == 1");
      add_fabric_hops(*fabrics_[static_cast<std::size_t>(node_of(src))], src,
                      dst, route);
      break;
    case RouteClass::kInterNode: {
      if (has_faults()) {
        degraded_route(src, dst, route);
        break;
      }
      // Dimension-ordered: walk the x ring to the destination column, then
      // the y ring to the destination row.
      dor_walk(spec_, node_of(src), node_of(dst), /*x_first=*/true,
               [&](NodeId node, int dir) {
                 route.hops.push_back(link(node, dir));
               });
      route.latency_ns =
          static_cast<TimeNs>(route.hops.size()) * spec_.link_latency_ns;
      break;
    }
  }
}

NodeId TorusTopology::neighbor(NodeId n, int dir) const {
  int x = node_x(n), y = node_y(n);
  switch (dir) {
    case 0: x = (x + 1) % spec_.dim_x; break;
    case 1: x = (x + spec_.dim_x - 1) % spec_.dim_x; break;
    case 2: y = (y + 1) % spec_.dim_y; break;
    default: y = (y + spec_.dim_y - 1) % spec_.dim_y; break;
  }
  return node_at(x, y);
}

void TorusTopology::degraded_route(PeId src, PeId dst, Route& route) {
  const NodeId sn = node_of(src), dn = node_of(dst);
  const std::size_t nodes = static_cast<std::size_t>(num_nodes());
  if (detour_dirs_.empty()) detour_dirs_.resize(nodes * nodes);
  std::vector<std::uint8_t>& dirs =
      detour_dirs_[static_cast<std::size_t>(sn) * nodes +
                   static_cast<std::size_t>(dn)];
  // An inter-node route has >= 1 hop, so empty means "not yet computed".
  if (dirs.empty()) dirs = compute_detour(sn, dn, src, dst);
  NodeId n = sn;
  TimeNs jitter = 0;
  for (std::uint8_t d : dirs) {
    Link* l = link(n, d);
    route.hops.push_back(l);
    jitter += l->jitter_ns();
    n = neighbor(n, d);
  }
  route.latency_ns =
      static_cast<TimeNs>(route.hops.size()) * spec_.link_latency_ns + jitter;
}

std::vector<std::uint8_t> TorusTopology::compute_detour(NodeId sn, NodeId dn,
                                                        PeId src, PeId dst) {
  // Minimal-hop candidates first: the canonical x-then-y route, then its
  // y-then-x mirror (dodges a dead link in the other dimension's ring).
  for (bool x_first : {true, false}) {
    std::vector<std::uint8_t> dirs;
    bool alive = true;
    dor_walk(spec_, sn, dn, x_first, [&](NodeId node, int dir) {
      if (link(node, dir)->dead()) alive = false;
      dirs.push_back(static_cast<std::uint8_t>(dir));
    });
    if (alive) return dirs;
  }
  // Deterministic BFS over alive links (fixed direction order), shortest
  // surviving path by hop count.
  const int nodes = num_nodes();
  std::vector<int> prev(static_cast<std::size_t>(nodes), -1);
  std::vector<std::uint8_t> prev_dir(static_cast<std::size_t>(nodes), 0);
  std::vector<NodeId> queue;
  queue.push_back(sn);
  prev[static_cast<std::size_t>(sn)] = sn;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId n = queue[head];
    if (n == dn) break;
    for (int dir = 0; dir < 4; ++dir) {
      if (dir < 2 ? spec_.dim_x <= 1 : spec_.dim_y <= 1) continue;
      if (link(n, dir)->dead()) continue;
      const NodeId m = neighbor(n, dir);
      if (prev[static_cast<std::size_t>(m)] >= 0) continue;
      prev[static_cast<std::size_t>(m)] = n;
      prev_dir[static_cast<std::size_t>(m)] = static_cast<std::uint8_t>(dir);
      queue.push_back(m);
    }
  }
  if (prev[static_cast<std::size_t>(dn)] < 0) {
    throw PartitionedFabricError(
        "torus partitioned: no alive path node" + std::to_string(sn) +
            " -> node" + std::to_string(dn) + " (pe" + std::to_string(src) +
            " -> pe" + std::to_string(dst) + ")",
        src, dst);
  }
  std::vector<std::uint8_t> dirs;
  for (NodeId n = dn; n != sn; n = prev[static_cast<std::size_t>(n)]) {
    dirs.push_back(prev_dir[static_cast<std::size_t>(n)]);
  }
  std::reverse(dirs.begin(), dirs.end());
  return dirs;
}

void TorusTopology::collect_fault_sites(std::vector<FaultSite>& out) {
  // Only directions with a real ring; a 1-wide dimension's links exist but
  // are never routed over, so faulting them would be dead code.
  for (NodeId n = 0; n < num_nodes(); ++n) {
    for (int d = 0; d < 4; ++d) {
      if (d < 2 ? spec_.dim_x <= 1 : spec_.dim_y <= 1) continue;
      Link* l = link(n, d);
      out.push_back({l->name(), n, l, nullptr, /*can_die=*/true});
    }
  }
}

// ---------------------------------------------------------------------------

std::unique_ptr<Topology> make_topology(const TopologySpec& spec,
                                        int num_nodes, int gpus_per_node,
                                        const FabricSpec& fabric,
                                        const IbSpec& ib) {
  switch (spec.kind) {
    case TopologySpec::Kind::kFullyConnected:
      return std::make_unique<MultiRailTopology>(num_nodes, gpus_per_node,
                                                 /*rails=*/1, fabric, ib);
    case TopologySpec::Kind::kSwitchedNode:
      return std::make_unique<SwitchedTopology>(num_nodes, gpus_per_node,
                                                spec.switched, ib);
    case TopologySpec::Kind::kMultiRail:
      return std::make_unique<MultiRailTopology>(num_nodes, gpus_per_node,
                                                 spec.nic_rails, fabric, ib);
    case TopologySpec::Kind::kTorus2D: {
      FCC_CHECK_MSG(spec.torus.num_nodes() == num_nodes,
                    "TopologySpec: torus dims "
                        << spec.torus.dim_x << "x" << spec.torus.dim_y
                        << " must cover num_nodes=" << num_nodes);
      return std::make_unique<TorusTopology>(spec.torus, gpus_per_node,
                                             fabric);
    }
  }
  FCC_CHECK_MSG(false, "unknown topology kind");
  return nullptr;
}

}  // namespace fcc::hw
