#include "gpu/machine.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>

namespace fcc::gpu {

namespace {

/// The node→shard map. Torus grids are cut into rectangular tiles
/// (minimal cross-shard surface, and tiles keep neighbor traffic — the
/// dominant pattern on a torus — inside one shard) when a tile factorization
/// sx*sy == num_shards divides the dims; anything else gets contiguous
/// balanced node blocks.
std::vector<int> node_shard_map(const Machine::Config& config) {
  const int nodes = config.num_nodes;
  const int num_shards = config.num_shards;
  std::vector<int> shard(static_cast<std::size_t>(nodes), 0);
  if (num_shards <= 1) return shard;
  if (config.topology.kind == hw::TopologySpec::Kind::kTorus2D) {
    const int dx = config.topology.torus.dim_x;
    const int dy = config.topology.torus.dim_y;
    int best_sx = -1;
    int best_surface = 0;
    for (int sx = 1; sx <= num_shards; ++sx) {
      if (num_shards % sx != 0) continue;
      const int sy = num_shards / sx;
      if (dx % sx != 0 || dy % sy != 0) continue;
      const int surface = dx / sx + dy / sy;  // half the tile perimeter
      if (best_sx < 0 || surface < best_surface) {
        best_sx = sx;
        best_surface = surface;
      }
    }
    if (best_sx > 0) {
      const int sy = num_shards / best_sx;
      const int tile_x = dx / best_sx;
      const int tile_y = dy / sy;
      for (NodeId n = 0; n < nodes; ++n) {
        const int x = n % dx;
        const int y = n / dx;
        shard[static_cast<std::size_t>(n)] =
            (y / tile_y) * best_sx + x / tile_x;
      }
      return shard;
    }
  }
  for (NodeId n = 0; n < nodes; ++n) {
    shard[static_cast<std::size_t>(n)] = static_cast<int>(
        static_cast<std::int64_t>(n) * num_shards / nodes);
  }
  return shard;
}

}  // namespace

Machine::Machine(const Config& config)
    : config_(config), sharded_(config.num_shards) {
  for (int s = 0; s < sharded_.num_shards(); ++s) {
    traces_.push_back(std::make_unique<sim::Trace>(config.collect_trace));
  }
  FCC_CHECK_MSG(config.num_nodes >= 1,
                "Machine::Config: num_nodes must be >= 1, got "
                    << config.num_nodes);
  FCC_CHECK_MSG(config.gpus_per_node >= 1,
                "Machine::Config: gpus_per_node must be >= 1, got "
                    << config.gpus_per_node);
  FCC_CHECK_MSG(config.gpu.num_cus >= 1 && config.gpu.max_wgs_per_cu >= 1,
                "Machine::Config: GPU must have positive CU/WG-slot counts");
  FCC_CHECK_MSG(config.gpu.hbm_bytes_per_ns > 0,
                "Machine::Config: HBM bandwidth must be positive, got "
                    << config.gpu.hbm_bytes_per_ns);
  FCC_CHECK_MSG(config.gpu.fp32_flops_per_ns > 0,
                "Machine::Config: ALU throughput must be positive, got "
                    << config.gpu.fp32_flops_per_ns);
  // Latencies: a negative one would abort mid-run (the engine's check on a
  // schedule into the past) or, as the NIC's per-message processing,
  // silently shorten transfers.
  const auto check_latency = [](const char* field, TimeNs ns) {
    FCC_CHECK_MSG(ns >= 0, "Machine::Config: " << field
                                                << " must be >= 0, got " << ns);
  };
  check_latency("gpu.kernel_launch_ns", config.gpu.kernel_launch_ns);
  check_latency("gpu.stream_sync_ns", config.gpu.stream_sync_ns);
  check_latency("fabric.latency_ns", config.fabric.latency_ns);
  check_latency("fabric.store_issue_overhead_ns",
                config.fabric.store_issue_overhead_ns);
  check_latency("ib.wire_latency_ns", config.ib.wire_latency_ns);
  check_latency("ib.per_msg_proc_ns", config.ib.per_msg_proc_ns);
  check_latency("ib.gpu_post_overhead_ns", config.ib.gpu_post_overhead_ns);
  FCC_CHECK_MSG(config.num_shards <= config.num_nodes,
                "Machine::Config: num_shards ("
                    << config.num_shards << ") exceeds num_nodes ("
                    << config.num_nodes
                    << "); a node may not split across shards");
  const int pes = config.num_nodes * config.gpus_per_node;

  // PE→shard partition: node-aligned, since intra-node fabric state
  // (ports, switch links) is shard-owned.
  const std::vector<int> node_shard = node_shard_map(config);
  pe_shard_.resize(static_cast<std::size_t>(pes));
  for (PeId pe = 0; pe < pes; ++pe) {
    pe_shard_[static_cast<std::size_t>(pe)] =
        node_shard[static_cast<std::size_t>(pe / config.gpus_per_node)];
  }

  // Fabric/NIC bandwidths are validated by the topology that actually
  // instantiates them (a torus never builds a NIC, a switched node never
  // reads FabricSpec), so an unused spec may legitimately be zeroed.
  devices_.reserve(pes);
  for (PeId pe = 0; pe < pes; ++pe) {
    devices_.push_back(
        std::make_unique<Device>(engine_of(pe), pe, config.gpu));
  }
  topology_ = hw::make_topology(config.topology, config.num_nodes,
                                config.gpus_per_node, config.fabric,
                                config.ib);

  if (is_sharded()) {
    topology_->set_engine_shards(config.num_shards);
    defer_inter_node_ = !topology_->inter_node_state_src_local();
    std::vector<int> node_shard(static_cast<std::size_t>(config.num_nodes));
    for (NodeId n = 0; n < config.num_nodes; ++n) {
      // Deferred-reservation fabrics apply *every* inter-node delivery at a
      // window barrier (not just cross-shard ones), so their lookahead must
      // floor over all inter-node pairs: ask with each node as its own
      // shard. Eager fabrics only push cross-shard deliveries through the
      // mailbox and may use the (larger or equal) cross-shard floor.
      node_shard[static_cast<std::size_t>(n)] =
          defer_inter_node_ ? n : shard_of(n * config.gpus_per_node);
    }
    lookahead_ = topology_->min_inter_shard_latency(node_shard);
    FCC_CHECK_MSG(lookahead_ > 0,
                  "Machine::Config: cross-shard lookahead is zero "
                  "(zero-latency inter-node links); conservative sharded "
                  "execution needs a positive latency floor");
  }
}

sim::Trace Machine::merged_trace() const {
  sim::Trace merged(true);
  std::vector<sim::TraceSpan> spans;
  std::vector<sim::TraceInstant> instants;
  for (const auto& t : traces_) {
    spans.insert(spans.end(), t->spans().begin(), t->spans().end());
    instants.insert(instants.end(), t->instants().begin(),
                    t->instants().end());
  }
  std::sort(spans.begin(), spans.end(),
            [](const sim::TraceSpan& a, const sim::TraceSpan& b) {
              return std::tie(a.start, a.end, a.pid, a.tid, a.name) <
                     std::tie(b.start, b.end, b.pid, b.tid, b.name);
            });
  std::sort(instants.begin(), instants.end(),
            [](const sim::TraceInstant& a, const sim::TraceInstant& b) {
              return std::tie(a.at, a.pid, a.tid, a.name) <
                     std::tie(b.at, b.pid, b.tid, b.name);
            });
  for (auto& s : spans) merged.add_span(std::move(s));
  for (auto& i : instants) merged.add_instant(std::move(i));
  return merged;
}

sim::ShardedEngine::RunStats Machine::run_all(unsigned num_threads) {
  if (!is_sharded()) {
    sim::ShardedEngine::RunStats stats;
    stats.events = engine().run();
    stats.windows = 1;
    stats.threads = 1;
    last_run_stats_ = stats;
    return stats;
  }
  last_run_stats_ = sharded_.run(lookahead_, num_threads);
  return last_run_stats_;
}

TimeNs Machine::remote_write_time(PeId src, PeId dst, Bytes bytes,
                                  TimeNs ready) {
  FCC_CHECK(src >= 0 && src < num_pes());
  FCC_CHECK(dst >= 0 && dst < num_pes());
  if (src == dst) {
    // Self-PUT fast path: a local copy through HBM (read + write at the
    // device's aggregate bandwidth). It must never reserve fabric link
    // time — the bytes never leave the die.
    if (bytes == 0) return ready;
    const auto& dev = device(src);
    const double bw = dev.hbm().total_bandwidth(dev.spec().max_wg_slots());
    return ready +
           static_cast<TimeNs>(2.0 * static_cast<double>(bytes) / bw + 0.5);
  }
  return topology_->write_time(src, dst, bytes, ready);
}

}  // namespace fcc::gpu
