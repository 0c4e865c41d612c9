#include "scaleout/shard_workload.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "shmem/flags.h"
#include "shmem/world.h"
#include "sim/task.h"

namespace fcc::scaleout {

namespace {

/// One lane's process, living on `engine` (the PE's home shard — the
/// Engine& first parameter registers the task there for deadlock checks).
/// Flag layout per PE: [2 * lane] counts intra-node arrivals for the lane,
/// [2 * lane + 1] counts inter-node ring arrivals.
sim::Task lane_process(sim::Engine& engine, gpu::Machine& m, shmem::World& w,
                       shmem::FlagArray& flags,
                       const ShardWorkloadConfig& cfg, PeId pe, int lane,
                       TimeNs& end_out) {
  const int g = m.gpus_per_node();
  const int nodes = m.num_nodes();
  const NodeId node = m.node_of(pe);
  const std::size_t intra_idx = static_cast<std::size_t>(2 * lane);
  const std::size_t inter_idx = intra_idx + 1;
  for (int r = 0; r < cfg.rounds; ++r) {
    if (cfg.compute_ns > 0) {
      co_await m.device(pe).busy_wait(cfg.compute_ns);
    }
    if (g > 1) {
      // Rotating local peer: for fixed (round, lane) the local->local map
      // is a bijection, so each lane receives exactly one intra add/round.
      const PeId dst = m.pe_of(node, (m.local_index(pe) + 1 + r + lane) % g);
      co_await w.issue(pe, dst, shmem::World::IssueKind::kStore);
      w.put(pe, dst, cfg.intra_bytes, flags.add_update(dst, intra_idx, 1));
    }
    if (nodes > 1) {
      // Node ring, same local index: on a torus each directed ring link is
      // reserved by exactly one source node (see header), which is what
      // makes the deferred barrier replay order-insensitive.
      const PeId dst = m.pe_of((node + 1) % nodes, m.local_index(pe));
      co_await w.issue(pe, dst, shmem::World::IssueKind::kRdma);
      w.put(pe, dst, cfg.inter_bytes, flags.add_update(dst, inter_idx, 1));
    }
    if (g > 1) {
      co_await flags.wait_ge(pe, intra_idx,
                             static_cast<std::uint64_t>(r) + 1);
    }
    if (nodes > 1) {
      co_await flags.wait_ge(pe, inter_idx,
                             static_cast<std::uint64_t>(r) + 1);
    }
  }
  co_await w.quiet(pe);
  end_out = engine.now();
}

}  // namespace

TimeNs ShardTrace::final_time() const {
  TimeNs t = 0;
  for (const TimeNs e : lane_end) t = std::max(t, e);
  return t;
}

std::string ShardTrace::str() const {
  std::ostringstream os;
  os << "puts=" << puts << " final=" << final_time() << "\nlane_end={";
  for (const TimeNs t : lane_end) os << t << ",";
  os << "}\nbusy={";
  for (const TimeNs b : busy) os << b << ",";
  os << "}\nflags={";
  for (const std::uint64_t f : flags) os << f << ",";
  os << "}";
  return os.str();
}

ShardTrace run_shard_workload(gpu::Machine& machine,
                              const ShardWorkloadConfig& cfg,
                              unsigned num_threads,
                              sim::ShardedEngine::RunStats* stats_out) {
  FCC_CHECK_MSG(cfg.rounds >= 1, "ShardWorkloadConfig: rounds must be >= 1");
  FCC_CHECK_MSG(cfg.lanes_per_pe >= 1,
                "ShardWorkloadConfig: lanes_per_pe must be >= 1");
  const int pes = machine.num_pes();
  const int lanes = cfg.lanes_per_pe;
  shmem::World world(machine);
  std::vector<sim::Engine*> engines(static_cast<std::size_t>(pes));
  for (PeId pe = 0; pe < pes; ++pe) {
    engines[static_cast<std::size_t>(pe)] = &machine.engine_of(pe);
  }
  shmem::FlagArray flags(std::move(engines),
                         static_cast<std::size_t>(2 * lanes));

  ShardTrace tr;
  tr.lane_end.assign(static_cast<std::size_t>(pes) * lanes, 0);
  for (PeId pe = 0; pe < pes; ++pe) {
    for (int lane = 0; lane < lanes; ++lane) {
      lane_process(machine.engine_of(pe), machine, world, flags, cfg, pe,
                   lane,
                   tr.lane_end[static_cast<std::size_t>(pe) * lanes + lane]);
    }
  }
  const sim::ShardedEngine::RunStats stats = machine.run_all(num_threads);
  if (stats_out != nullptr) *stats_out = stats;
  FCC_CHECK_MSG(machine.sharded().live_tasks() == 0,
                "shard workload deadlocked: "
                    << machine.sharded().live_tasks()
                    << " lane processes still suspended");
  tr.puts = world.puts_issued();
  for (PeId pe = 0; pe < pes; ++pe) {
    tr.busy.push_back(machine.device(pe).busy_ns());
    for (int i = 0; i < 2 * lanes; ++i) {
      tr.flags.push_back(flags.read(pe, static_cast<std::size_t>(i)));
    }
  }
  return tr;
}

}  // namespace fcc::scaleout
