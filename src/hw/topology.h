// Pluggable interconnect topology: (src PE, dst PE) -> multi-hop Route.
//
// Every byte the upper layers move resolves to a `Route`: a sequence of
// shared FIFO `Link` hops reserved cut-through — one joint serialization
// window across all hops, exactly the joint egress/ingress accounting the
// fully-connected fabric always used (see `reserve_cut_through` in link.h)
// — optionally followed by a NIC (descriptor processor + wire) that takes
// the message off-node.
// Concrete fabrics:
//
//   SwitchedTopology        per-GPU up/down links into a node switch
//                           (NVSwitch-class 8-GPU node), optional shared
//                           crossbar trunk as a bisection cap
//   MultiRailTopology       fully-connected intra-node + k NIC rails per
//                           node, rail picked by source GPU affinity; with
//                           one rail it is the paper's Table I platform
//                           (TopologySpec::Kind::kFullyConnected), whose
//                           timings the golden traces in
//                           test_sim_determinism pin
//   TorusTopology           event-driven 2D torus of nodes with
//                           dimension-ordered routes
//
// Every write resolves its route and reserves it (`write_time`), and every
// hop counts its own bytes, so a new fabric is one subclass: implement
// `resolve` and `make_topology` plumbs it under gpu::Machine unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "hw/fabric.h"
#include "hw/fault.h"
#include "hw/gpu_spec.h"
#include "hw/link.h"
#include "hw/nic.h"

namespace fcc::hw {

/// Coarse class of a resolved route; upper layers key issue costs and
/// FIFO-channel ordering off this instead of re-deriving node arithmetic.
enum class RouteClass {
  kSelf,       // src == dst: HBM-local copy, never touches the fabric
  kIntraNode,  // scale-up links only (fabric ports, switch hops)
  kInterNode,  // leaves the node: NIC descriptor path and/or torus rings
};

/// A resolved path. `hops` are reserved jointly (cut-through) for one
/// serialization window; `nic` (when set) then serializes the message
/// through its descriptor processor and wire to take it off-node.
struct Route {
  RouteClass cls = RouteClass::kSelf;
  Nic* nic = nullptr;
  std::vector<Link*> hops;
  TimeNs latency_ns = 0;  // propagation added after the last hop

  void clear() {
    cls = RouteClass::kSelf;
    nic = nullptr;
    hops.clear();
    latency_ns = 0;
  }
};

/// 2D-torus shape (Table II scale-out network: 200 Gb/s, 700 ns hops), the
/// validated description TorusTopology is built from.
struct TorusSpec {
  int dim_x = 16;
  int dim_y = 8;
  double link_bytes_per_ns = 25.0;  // 200 Gb/s
  TimeNs link_latency_ns = 700;

  int num_nodes() const { return dim_x * dim_y; }

  void validate() const {
    FCC_CHECK_MSG(dim_x >= 1 && dim_y >= 1,
                  "TorusSpec: dims must be positive, got " << dim_x << "x"
                                                           << dim_y);
    FCC_CHECK_MSG(dim_x * dim_y >= 2,
                  "TorusSpec: 1x1 torus is degenerate (no links); use a "
                  "single-node machine instead");
    FCC_CHECK_MSG(link_bytes_per_ns > 0,
                  "TorusSpec: link bandwidth must be positive, got "
                      << link_bytes_per_ns);
    FCC_CHECK_MSG(link_latency_ns >= 0,
                  "TorusSpec: link latency must be non-negative, got "
                      << link_latency_ns);
  }
};

/// Switched scale-up node (NVSwitch class): every GPU owns an uplink and a
/// downlink of `port_bytes_per_ns` into the switch. Contention is per
/// endpoint port (like the fully-connected fabric) plus, optionally, a
/// shared crossbar trunk capping the node's aggregate bisection.
struct SwitchedSpec {
  double port_bytes_per_ns = 80.0;
  /// One-hop traversal latency; an intra-node route pays it twice
  /// (GPU -> switch -> GPU).
  TimeNs hop_latency_ns = 350;
  /// Aggregate crossbar bandwidth; 0 disables the trunk (ideal crossbar).
  double trunk_bytes_per_ns = 0.0;

  void validate() const {
    FCC_CHECK_MSG(port_bytes_per_ns > 0,
                  "SwitchedSpec: port bandwidth must be positive, got "
                      << port_bytes_per_ns);
    FCC_CHECK_MSG(hop_latency_ns >= 0,
                  "SwitchedSpec: hop latency must be non-negative");
    FCC_CHECK_MSG(trunk_bytes_per_ns >= 0,
                  "SwitchedSpec: trunk bandwidth must be >= 0 (0 = ideal)");
  }
};

/// Which fabric a Machine instantiates, plus its parameters.
struct TopologySpec {
  enum class Kind {
    kFullyConnected,  // a MultiRailTopology with one rail: one NIC per node
    kSwitchedNode,
    kMultiRail,
    kTorus2D,
  };
  Kind kind = Kind::kFullyConnected;

  SwitchedSpec switched;  // kSwitchedNode
  int nic_rails = 2;      // kMultiRail: NICs per node
  TorusSpec torus;        // kTorus2D: dims must equal the node count
};

class Topology {
 public:
  Topology(int num_nodes, int gpus_per_node)
      : num_nodes_(num_nodes), gpus_per_node_(gpus_per_node) {
    FCC_CHECK_MSG(num_nodes >= 1, "Topology: num_nodes must be >= 1, got "
                                      << num_nodes);
    FCC_CHECK_MSG(gpus_per_node >= 1,
                  "Topology: gpus_per_node must be >= 1, got "
                      << gpus_per_node);
  }
  virtual ~Topology() = default;

  virtual const char* kind_name() const = 0;

  int num_nodes() const { return num_nodes_; }
  int gpus_per_node() const { return gpus_per_node_; }
  int num_pes() const { return num_nodes_ * gpus_per_node_; }
  NodeId node_of(PeId pe) const { return pe / gpus_per_node_; }
  int local_index(PeId pe) const { return pe % gpus_per_node_; }

  /// Cheap classification (no link resolution) by node arithmetic.
  RouteClass route_class(PeId src, PeId dst) const {
    if (src == dst) return RouteClass::kSelf;
    return node_of(src) == node_of(dst) ? RouteClass::kIntraNode
                                        : RouteClass::kInterNode;
  }

  /// The other nodes in the order node `self` sends to them in a shift
  /// All-to-All: with every node walking its own order, each step's
  /// destinations are a permutation of the nodes. The default is the ring
  /// shift (self + k) mod num_nodes for k = 1 .. num_nodes - 1.
  virtual std::vector<NodeId> shift_order(NodeId self) const;

  /// Resolves (src, dst) into `route` (cleared first). `route` is a
  /// caller-owned buffer so steady-state resolution is allocation-free.
  virtual void resolve(PeId src, PeId dst, Route& route) = 0;

  /// Reserves the route for `bytes` ready at `ready` and returns the
  /// delivery-complete time: resolves, then runs `reserve`.
  TimeNs write_time(PeId src, PeId dst, Bytes bytes, TimeNs ready);

  /// Generic reservation of an already-resolved route.
  static TimeNs reserve(const Route& route, Bytes bytes, TimeNs ready);

  /// True when every link/NIC an inter-node route reserves belongs to the
  /// *source node* (multi-rail: src-affinity rail; switched: src uplink +
  /// src NIC). The sharded world then reserves inter-node routes eagerly
  /// at issue time — a node-aligned partition makes that state
  /// single-shard-touched. The torus returns false: its
  /// routes ride ring links owned by intermediate nodes, so reservations
  /// must be serialized at window barriers instead (shmem::World).
  virtual bool inter_node_state_src_local() const { return true; }

  /// Conservative lookahead for a sharded run under the given node→shard
  /// partition: a lower bound on the latency of any inter-node write whose
  /// endpoints live on different shards (pure propagation — NIC descriptor
  /// processing, wire latency, hop latencies — ignoring all serialization,
  /// which only pushes delivery later). The generic implementation scans
  /// cross-shard node pairs via `resolve`; if the partition has no
  /// cross-shard pair it falls back to the minimum over all inter-node
  /// pairs (any positive bound works when nothing crosses shards).
  /// Subclasses with a closed form (torus: one hop) override.
  virtual TimeNs min_inter_shard_latency(const std::vector<int>& node_shard);

  /// Per-node hardware accessors for stats and tests; null when the fabric
  /// has no such component (e.g. no Fabric inside a switched node).
  virtual Fabric* node_fabric(NodeId) { return nullptr; }
  virtual Nic* node_nic(NodeId) { return nullptr; }

  // ---- fault injection & health (hw/fault.h) ------------------------------

  /// Every fault-capable component of this fabric, in a stable enumeration
  /// order (lazily built once). Fabric ports are deliberately not sites:
  /// they have no reroute alternative and the NIC/trunk/ring layers are
  /// where real fabrics brown out.
  const std::vector<FaultSite>& fault_sites();

  /// Index of the site named `name`, or -1 (bench scenario tables key
  /// faults by component name).
  int fault_site_index(const std::string& name);

  /// Applies one event now. Health changes take effect on the next route
  /// resolution; `faults_changed()` lets subclasses drop route caches.
  void apply_fault(const FaultEvent& ev);

  /// True once any site is unhealthy; resolution paths branch into their
  /// health-aware variants only then, keeping the healthy hot path (and its
  /// golden-traced timings) untouched.
  bool has_faults() const { return faulted_ > 0; }

  /// Monotone counter bumped by every apply_fault — ccl caches the
  /// algorithm kAuto resolves to keyed on it.
  std::uint64_t fault_epoch() const { return fault_epoch_; }

  /// Engine shards whose threads reserve routes on this fabric during a run
  /// (gpu::Machine sets it; 1 for serial machines and bare topologies).
  /// schedule_fault_plan rejects fabrics with more than one.
  int engine_shards() const { return engine_shards_; }
  void set_engine_shards(int n) { engine_shards_ = n; }

 private:
  int num_nodes_;
  int gpus_per_node_;
  std::vector<FaultSite> sites_;
  bool sites_built_ = false;
  int faulted_ = 0;  // count of unhealthy sites
  std::uint64_t fault_epoch_ = 0;
  int engine_shards_ = 1;

 protected:
  /// Subclass hook: enumerate this fabric's fault sites (called once).
  virtual void collect_fault_sites(std::vector<FaultSite>&) = 0;

  /// Subclass hook: health state changed (drop detour/route caches).
  virtual void faults_changed() {}

  /// Shared post-resolve health guard: throws PartitionedFabricError when
  /// the route crosses a dead link or NIC, and folds per-hop fault jitter
  /// into the route's propagation latency. Call only when has_faults().
  void guard_route(PeId src, PeId dst, Route& route) const;
  /// Per-thread scratch route buffer: steady-state resolution stays
  /// allocation-free, and shard threads reserving source-local routes
  /// concurrently (see inter_node_state_src_local) never share it.
  static Route& scratch();

  /// Appends the standard intra-node fabric hops (source egress, destination
  /// ingress) and the fabric latency — shared by every topology that puts a
  /// `Fabric` inside the node.
  void add_fabric_hops(Fabric& f, PeId src, PeId dst, Route& route) const {
    route.hops.push_back(&f.egress(local_index(src)));
    route.hops.push_back(&f.ingress(local_index(dst)));
    route.latency_ns = f.spec().latency_ns;
  }
};

/// Switched scale-up node: src uplink + (optional trunk) + dst downlink,
/// cut-through. Cross-node messages ride the node NIC as usual.
class SwitchedTopology final : public Topology {
 public:
  SwitchedTopology(int num_nodes, int gpus_per_node, const SwitchedSpec& spec,
                   const IbSpec& ib);

  const char* kind_name() const override { return "switched"; }
  void resolve(PeId src, PeId dst, Route& route) override;
  Nic* node_nic(NodeId node) override { return nics_.at(node).get(); }

  const SwitchedSpec& spec() const { return spec_; }
  const Link& uplink(PeId pe) const { return *up_.at(pe); }
  const Link& downlink(PeId pe) const { return *down_.at(pe); }

 protected:
  void collect_fault_sites(std::vector<FaultSite>& out) override;

 private:
  SwitchedSpec spec_;
  std::vector<std::unique_ptr<Link>> up_;     // per PE
  std::vector<std::unique_ptr<Link>> down_;   // per PE
  std::vector<std::unique_ptr<Link>> trunk_;  // per node, may be empty
  std::vector<std::unique_ptr<Nic>> nics_;
};

/// Fully-connected intra-node fabric with `rails` NICs per node; a
/// cross-node message rides the rail its source GPU is affinitized to
/// (local index modulo rails), so concurrent senders stop serializing on
/// one descriptor processor/wire. An intra-node write is the two-hop
/// {egress, ingress} route.
class MultiRailTopology final : public Topology {
 public:
  MultiRailTopology(int num_nodes, int gpus_per_node, int rails,
                    const FabricSpec& fabric, const IbSpec& ib);

  const char* kind_name() const override { return "multi_rail"; }
  void resolve(PeId src, PeId dst, Route& route) override;
  Fabric* node_fabric(NodeId node) override { return fabrics_.at(node).get(); }
  Nic* node_nic(NodeId node) override { return rail(node, 0); }

  int rails() const { return rails_; }
  Nic* rail(NodeId node, int r) {
    return nics_.at(static_cast<std::size_t>(node) *
                        static_cast<std::size_t>(rails_) +
                    static_cast<std::size_t>(r))
        .get();
  }

 protected:
  void collect_fault_sites(std::vector<FaultSite>& out) override;

 private:
  /// Degraded-fabric failover: the source's affinity rail if alive, else
  /// the first surviving rail scanning (affinity + k) % rails; throws
  /// PartitionedFabricError when every rail of the node is dead.
  Nic* alive_rail(PeId src, PeId dst);

  int rails_;
  std::vector<std::unique_ptr<Fabric>> fabrics_;
  std::vector<std::unique_ptr<Nic>> nics_;  // node-major, rails per node
  std::vector<Nic*> affinity_;              // per PE: its healthy-fabric rail
};

/// Event-driven 2D torus of nodes. Point-to-point traffic takes
/// dimension-ordered (x then y) shortest-direction routes over shared
/// directed ring links.
class TorusTopology final : public Topology {
 public:
  /// `fabric` is used for the intra-node ports when gpus_per_node > 1.
  TorusTopology(const TorusSpec& spec, int gpus_per_node = 1,
                const FabricSpec& fabric = {});

  const char* kind_name() const override { return "torus2d"; }
  /// Checkerboard-mirrored 2D shifts: step k sends every even-coloured node
  /// ((x + y) even) to (x + dx, y + dy) and every odd-coloured node to
  /// (x - dx, y - dy) for one (dx, dy), nearest first by max(x ring
  /// distance, y ring distance), ties in dy-major (dy, dx) order. Mirrored
  /// routes take the opposite-direction ring links, and same-coloured
  /// sources sit two apart, so on 8x8 every step up to ring distance 2 is
  /// link-disjoint and no step puts more than 2 routes on a directed link.
  /// On even-sized tori each step is a permutation of the nodes.
  std::vector<NodeId> shift_order(NodeId self) const override;
  void resolve(PeId src, PeId dst, Route& route) override;
  Fabric* node_fabric(NodeId node) override {
    return fabrics_.empty() ? nullptr : fabrics_.at(node).get();
  }

  /// Torus routes traverse ring links owned by intermediate nodes, so a
  /// sharded world must serialize reservations at window barriers.
  bool inter_node_state_src_local() const override { return false; }

  /// Closed form: every inter-node route crosses at least one ring link, so
  /// one hop's propagation latency is a safe (and tight, for neighboring
  /// tiles) lower bound — no O(nodes^2) scan at machine construction.
  TimeNs min_inter_shard_latency(const std::vector<int>&) override {
    return spec_.link_latency_ns;
  }

  const TorusSpec& spec() const { return spec_; }

  /// Number of ring hops a (src, dst) node pair traverses.
  int hop_count(NodeId src, NodeId dst) const;

 protected:
  void collect_fault_sites(std::vector<FaultSite>& out) override;
  /// Health changes invalidate every cached detour.
  void faults_changed() override { detour_dirs_.clear(); }

 private:
  int node_x(NodeId n) const { return n % spec_.dim_x; }
  int node_y(NodeId n) const { return n / spec_.dim_x; }
  NodeId node_at(int x, int y) const { return y * spec_.dim_x + x; }
  NodeId neighbor(NodeId n, int dir) const;
  Link* link(NodeId node, int dir) {
    return links_[static_cast<std::size_t>(node) * 4 +
                  static_cast<std::size_t>(dir)]
        .get();
  }
  /// Faulted-fabric route between nodes: dimension-ordered if every hop is
  /// alive, else the y-then-x detour, else a deterministic BFS over alive
  /// links; throws PartitionedFabricError when no path survives. Hop
  /// directions are cached per (src, dst) node pair until the next fault.
  void degraded_route(PeId src, PeId dst, Route& route);
  std::vector<std::uint8_t> compute_detour(NodeId sn, NodeId dn, PeId src,
                                           PeId dst);

  TorusSpec spec_;
  std::vector<std::unique_ptr<Link>> links_;  // 4 per node: +x, -x, +y, -y
  std::vector<std::unique_ptr<Fabric>> fabrics_;  // gpus_per_node > 1 only
  /// [src * nodes + dst] hop-direction sequence on the faulted fabric;
  /// empty = not yet computed. Cleared by faults_changed(), sized lazily on
  /// the first degraded resolve (healthy runs never allocate it).
  std::vector<std::vector<std::uint8_t>> detour_dirs_;
};

/// Builds the topology a Machine::Config asks for.
std::unique_ptr<Topology> make_topology(const TopologySpec& spec,
                                        int num_nodes, int gpus_per_node,
                                        const FabricSpec& fabric,
                                        const IbSpec& ib);

}  // namespace fcc::hw
