// Machine: the full simulated platform (nodes x GPUs, interconnect).
//
// Owns the event engine, one Device per PE, and a pluggable hw::Topology
// that resolves every (src, dst) pair to a multi-hop route over shared
// FIFO links. The shmem and collective layers route every byte through
// `remote_write_time`, so all interconnect paths share one entry point;
// swapping the fabric (fully-connected, switched node, multi-rail NICs,
// 2D torus) is a Config change, not a Machine fork.
#pragma once

#include <memory>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "gpu/device.h"
#include "hw/fabric.h"
#include "hw/gpu_spec.h"
#include "hw/nic.h"
#include "hw/topology.h"
#include "sim/engine.h"
#include "sim/sharded_engine.h"
#include "sim/trace.h"

namespace fcc::gpu {

class Machine {
 public:
  struct Config {
    int num_nodes = 1;
    int gpus_per_node = 4;
    hw::GpuSpec gpu;
    hw::FabricSpec fabric;
    hw::IbSpec ib;
    hw::TopologySpec topology;  // fully-connected by default
    bool collect_trace = false;

    /// Engine shards for conservative-lookahead parallel simulation. 1 =
    /// the classic serial engine (every existing workload). With > 1, PEs
    /// are partitioned node-aligned across shards (torus configs get grid
    /// tiles, others contiguous node blocks) and the machine must be driven
    /// through `run_all` / `sharded()` rather than `engine().run()`.
    int num_shards = 1;
  };

  explicit Machine(const Config& config);

  /// The serial engine (shard 0). For num_shards == 1 machines this is the
  /// whole simulator, exactly as before sharding existed.
  sim::Engine& engine() { return sharded_.shard(0); }

  /// Shard 0's trace buffer — the whole trace on serial machines. Writers
  /// emitting from a PE's home shard must use trace_of(pe); readers of a
  /// sharded run want merged_trace().
  sim::Trace& trace() { return *traces_.front(); }
  /// The trace buffer owned by `pe`'s home shard: written only by that
  /// shard's thread, so per-PE kernel bodies may record without locks.
  sim::Trace& trace_of(PeId pe) {
    return *traces_[static_cast<std::size_t>(shard_of(pe))];
  }
  /// Deterministic merged view of every shard's buffer, spans sorted by
  /// (start, end, pid, tid, name) and instants by (at, pid, tid, name) —
  /// a canonical order independent of shard count (serial recording order
  /// is a different, equally valid order; compare merged to merged).
  sim::Trace merged_trace() const;
  const Config& config() const { return config_; }

  // --- sharding ----------------------------------------------------------

  int num_shards() const { return sharded_.num_shards(); }
  bool is_sharded() const { return sharded_.num_shards() > 1; }
  sim::ShardedEngine& sharded() { return sharded_; }
  int shard_of(PeId pe) const {
    return pe_shard_[static_cast<std::size_t>(pe)];
  }
  sim::Engine& engine_of(PeId pe) { return sharded_.shard(shard_of(pe)); }

  /// Conservative lookahead window (ns) for sharded runs; 0 when serial.
  TimeNs lookahead() const { return lookahead_; }

  /// True when inter-node route state is not source-local (torus ring
  /// links): the shmem world must defer inter-node reservations to window
  /// barriers instead of reserving eagerly at issue time.
  bool defer_inter_node() const { return defer_inter_node_; }

  /// Whether the fused-operator stack (FusedOp / Graph / serve) can run on
  /// this machine. Sharded machines spawn per-PE kernel bodies cross-shard
  /// at t0 + kernel_launch_ns, which must land beyond the conservative
  /// window — so the GPU's kernel-launch latency must cover the lookahead.
  /// Always true serial; true for every stock spec/fabric combination.
  bool supports_fused_ops() const {
    return !is_sharded() || config_.gpu.kernel_launch_ns >= lookahead_;
  }

  /// Runs the simulation to completion: the windowed parallel protocol when
  /// sharded, a plain serial `engine().run()` otherwise (reported as one
  /// window). `num_threads` is only meaningful when sharded.
  sim::ShardedEngine::RunStats run_all(unsigned num_threads = 0);

  /// Stats of the most recent run_all(). Layers that drive the machine but
  /// swallow the return value (serve::Simulator, GraphExecutor) leave the
  /// breakdown readable here for scaling benches.
  const sim::ShardedEngine::RunStats& last_run_stats() const {
    return last_run_stats_;
  }

  int num_pes() const { return static_cast<int>(devices_.size()); }
  int num_nodes() const { return config_.num_nodes; }
  int gpus_per_node() const { return config_.gpus_per_node; }

  Device& device(PeId pe) { return *devices_.at(pe); }
  const Device& device(PeId pe) const { return *devices_.at(pe); }

  NodeId node_of(PeId pe) const {
    FCC_DCHECK(pe >= 0 && pe < num_pes());
    return pe / config_.gpus_per_node;
  }
  int local_index(PeId pe) const { return pe % config_.gpus_per_node; }
  PeId pe_of(NodeId node, int local) const {
    return node * config_.gpus_per_node + local;
  }
  bool same_node(PeId a, PeId b) const { return node_of(a) == node_of(b); }

  hw::Topology& topology() { return *topology_; }
  const hw::Topology& topology() const { return *topology_; }

  /// Class of the route a (src, dst) write resolves to; upper layers key
  /// issue costs and channel ordering off this instead of `same_node`.
  hw::RouteClass route_class(PeId src, PeId dst) const {
    return topology_->route_class(src, dst);
  }

  /// Per-node fabric/NIC of topologies that have them (the default
  /// fully-connected one does); throws for fabrics without the component.
  hw::Fabric& fabric(NodeId node) {
    hw::Fabric* f = topology_->node_fabric(node);
    FCC_CHECK_MSG(f != nullptr, "topology '" << topology_->kind_name()
                                             << "' has no per-node fabric");
    return *f;
  }
  hw::Nic& nic(NodeId node) {
    hw::Nic* n = topology_->node_nic(node);
    FCC_CHECK_MSG(n != nullptr, "topology '" << topology_->kind_name()
                                             << "' has no per-node NIC");
    return *n;
  }

  /// Time at which `bytes` written by `src` become visible at `dst`, when
  /// the write is issued at `ready`. Self-writes are an HBM-local copy
  /// (never fabric traffic); everything else reserves the resolved route's
  /// hop intervals through the topology.
  TimeNs remote_write_time(PeId src, PeId dst, Bytes bytes, TimeNs ready);

 private:
  Config config_;
  sim::ShardedEngine sharded_;
  /// One buffer per shard; index 0 is the serial/whole-machine trace.
  std::vector<std::unique_ptr<sim::Trace>> traces_;
  std::vector<int> pe_shard_;
  std::vector<std::unique_ptr<Device>> devices_;
  std::unique_ptr<hw::Topology> topology_;
  TimeNs lookahead_ = 0;
  bool defer_inter_node_ = false;
  sim::ShardedEngine::RunStats last_run_stats_;
};

}  // namespace fcc::gpu
