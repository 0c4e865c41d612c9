#include "ccl/communicator.h"

#include <algorithm>
#include <coroutine>
#include <functional>
#include <utility>

#include "sim/task.h"

namespace fcc::ccl {
namespace {

constexpr Bytes elems_to_bytes(std::int64_t n) { return n * 4; }

/// Runs a link-reservation sweep and hands back the computed end time.
///
/// Serial machines compute inline in await_ready — no suspension, so the
/// event sequence is byte-identical to the historical inline sweeps.
/// Sharded machines suspend the (shard-0) driver and defer the sweep to the
/// next window barrier, where every shard thread is parked: the sweep reads
/// and reserves link state across all shards data-race-free, then the
/// driver resumes at the exact computed end (a rewind entry when shard 0's
/// frontier already passed it — legal, the continuation only touches
/// shard-0 host state before its next >= lookahead delay). Collectives that
/// overlap other put traffic inside the same window therefore serialize
/// their reservations at the barrier, an ordering approximation consistent
/// with the sharded engine's same-timestamp tie-breaking caveat.
class SweepAwaiter {
 public:
  SweepAwaiter(gpu::Machine& machine, TimeNs t0,
               std::function<TimeNs(TimeNs)> sweep)
      : machine_(machine), t0_(t0), sweep_(std::move(sweep)) {}

  bool await_ready() {
    if (machine_.is_sharded()) return false;
    end_ = sweep_(t0_);
    return true;
  }
  void await_suspend(std::coroutine_handle<> h) {
    machine_.call_at_barrier([this, h] {
      end_ = sweep_(t0_);
      machine_.engine().schedule_resume_at_unchecked(end_, h);
    });
  }
  TimeNs await_resume() const { return end_; }

 private:
  gpu::Machine& machine_;
  TimeNs t0_;
  std::function<TimeNs(TimeNs)> sweep_;
  TimeNs end_ = 0;
};

}  // namespace

Communicator::Communicator(gpu::Machine& machine, std::vector<PeId> members)
    : machine_(machine), members_(std::move(members)) {
  FCC_CHECK(!members_.empty());
  for (PeId pe : members_) {
    FCC_CHECK(pe >= 0 && pe < machine_.num_pes());
  }
  std::vector<std::vector<int>> by_node(
      static_cast<std::size_t>(machine_.num_nodes()));
  for (int r = 0; r < size(); ++r) {
    by_node[static_cast<std::size_t>(machine_.node_of(pe(r)))].push_back(r);
  }
  for (auto& node : by_node) {
    if (!node.empty()) groups_.by_node.push_back(std::move(node));
  }
  groups_.uniform = true;
  for (const auto& node : groups_.by_node) {
    if (node.size() != groups_.by_node.front().size()) groups_.uniform = false;
  }
}

TimeNs Communicator::reduce_cost(Bytes bytes) const {
  // Reads of the incoming chunks + write of the result, at aggregate HBM
  // bandwidth (reduction kernels saturate the device).
  const auto& dev = machine_.device(members_.front());
  const double bw = dev.hbm().total_bandwidth(dev.spec().max_wg_slots());
  return static_cast<TimeNs>(static_cast<double>(bytes) / bw + 0.5);
}

bool Communicator::hierarchy_eligible() const {
  const NodeGroups& g = groups_;
  return g.by_node.size() > 1 && g.uniform && g.by_node.front().size() > 1;
}

const std::vector<std::string>& Communicator::avoided_components() {
  hw::Topology& topo = machine_.topology();
  if (avoided_epoch_ != topo.fault_epoch()) {
    avoided_ = topo.has_faults()
                   ? topo.degraded_components(std::span<const PeId>(members_))
                   : std::vector<std::string>{};
    avoided_epoch_ = topo.fault_epoch();
  }
  return avoided_;
}

AllReduceAlgo Communicator::select_allreduce() {
  if (hierarchy_eligible() && avoided_components().empty()) {
    return AllReduceAlgo::kHierarchical;
  }
  return AllReduceAlgo::kTwoPhaseDirect;
}

AllToAllAlgo Communicator::select_a2a() {
  if (hierarchy_eligible() && avoided_components().empty()) {
    return AllToAllAlgo::kNodeAggregate;
  }
  return AllToAllAlgo::kPairwise;
}

TimeNs Communicator::flat_direct_time(std::int64_t n_elems, TimeNs t0) {
  const int n = size();
  // Phase 1 (reduce-scatter): rank r owns chunk r; every peer pushes its
  // copy of chunk r to rank r.
  const std::int64_t chunk = (n_elems + n - 1) / n;
  const Bytes chunk_bytes = elems_to_bytes(chunk);
  std::vector<TimeNs> phase1(static_cast<std::size_t>(n), t0);
  for (int dst = 0; dst < n; ++dst) {
    for (int src = 0; src < n; ++src) {
      if (src == dst) continue;
      const TimeNs d =
          machine_.remote_write_time(pe(src), pe(dst), chunk_bytes, t0);
      phase1[static_cast<std::size_t>(dst)] =
          std::max(phase1[static_cast<std::size_t>(dst)], d);
    }
  }
  // Reduce the n incoming copies of the owned chunk.
  for (int r = 0; r < n; ++r) {
    phase1[static_cast<std::size_t>(r)] +=
        reduce_cost(chunk_bytes * (n - 1) + chunk_bytes);
  }
  // Phase 2 (all-gather): each rank broadcasts its reduced chunk.
  std::vector<TimeNs> done(static_cast<std::size_t>(n), t0);
  for (int src = 0; src < n; ++src) {
    for (int dst = 0; dst < n; ++dst) {
      if (src == dst) continue;
      const TimeNs d = machine_.remote_write_time(
          pe(src), pe(dst), chunk_bytes, phase1[static_cast<std::size_t>(src)]);
      done[static_cast<std::size_t>(dst)] =
          std::max(done[static_cast<std::size_t>(dst)], d);
    }
    done[static_cast<std::size_t>(src)] =
        std::max(done[static_cast<std::size_t>(src)],
                 phase1[static_cast<std::size_t>(src)]);
  }
  TimeNs end = t0;
  for (int r = 0; r < n; ++r) {
    end = std::max(end, done[static_cast<std::size_t>(r)]);
  }
  return end;
}

TimeNs Communicator::flat_ring_time(std::int64_t n_elems, TimeNs t0) {
  const int n = size();
  // Ring: N-1 reduce-scatter steps + N-1 all-gather steps; each step
  // moves one chunk per rank to its neighbour. Steps are modeled with a
  // step barrier (the slowest link paces the ring anyway).
  const std::int64_t chunk = (n_elems + n - 1) / n;
  const Bytes chunk_bytes = elems_to_bytes(chunk);
  TimeNs step_start = t0;
  for (int step = 0; step < 2 * (n - 1); ++step) {
    TimeNs step_end = step_start;
    for (int r = 0; r < n; ++r) {
      const int next = (r + 1) % n;
      TimeNs d = machine_.remote_write_time(pe(r), pe(next), chunk_bytes,
                                            step_start);
      if (step < n - 1) d += reduce_cost(2 * chunk_bytes);
      step_end = std::max(step_end, d);
    }
    step_start = step_end;
  }
  return step_start;
}

TimeNs Communicator::hierarchical_allreduce_time(std::int64_t n_elems,
                                                 TimeNs t0) {
  const NodeGroups& groups = groups_;
  FCC_CHECK_MSG(hierarchy_eligible(),
                "hierarchical AllReduce needs >1 node with equal, >1 member "
                "counts; use a flat algorithm for this span");
  const int g = static_cast<int>(groups.by_node.front().size());
  const int nodes = static_cast<int>(groups.by_node.size());
  const std::int64_t chunk = (n_elems + g - 1) / g;  // per-lane shard
  const Bytes chunk_bytes = elems_to_bytes(chunk);

  // Stage A — intra-node reduce-scatter: lane l of each node ends owning
  // the node-local sum of shard l. Direct peer pushes over the scale-up
  // fabric, then the local reduction of g copies.
  std::vector<std::vector<TimeNs>> stage_a(
      static_cast<std::size_t>(nodes),
      std::vector<TimeNs>(static_cast<std::size_t>(g), t0));
  for (int k = 0; k < nodes; ++k) {
    const auto& node = groups.by_node[static_cast<std::size_t>(k)];
    for (int l = 0; l < g; ++l) {
      TimeNs arrive = t0;
      for (int s = 0; s < g; ++s) {
        if (s == l) continue;
        arrive = std::max(
            arrive, machine_.remote_write_time(
                        pe(node[static_cast<std::size_t>(s)]),
                        pe(node[static_cast<std::size_t>(l)]), chunk_bytes,
                        t0));
      }
      stage_a[static_cast<std::size_t>(k)][static_cast<std::size_t>(l)] =
          arrive + reduce_cost(chunk_bytes * g);
    }
  }

  // Stage B — inter-node ring AllReduce per lane: lane l's shard circles
  // the nodes in 2(nodes-1) steps of chunk/nodes each, crossing the NIC
  // (or torus) links only. Each lane's ring is bulk-synchronous.
  std::vector<TimeNs> stage_b(static_cast<std::size_t>(g), t0);
  const std::int64_t sub = (chunk + nodes - 1) / nodes;
  const Bytes sub_bytes = elems_to_bytes(sub);
  for (int l = 0; l < g; ++l) {
    TimeNs step_start = t0;
    for (int k = 0; k < nodes; ++k) {
      step_start = std::max(
          step_start,
          stage_a[static_cast<std::size_t>(k)][static_cast<std::size_t>(l)]);
    }
    for (int step = 0; step < 2 * (nodes - 1); ++step) {
      TimeNs step_end = step_start;
      for (int k = 0; k < nodes; ++k) {
        const int next = (k + 1) % nodes;
        TimeNs d = machine_.remote_write_time(
            pe(groups.by_node[static_cast<std::size_t>(k)]
                             [static_cast<std::size_t>(l)]),
            pe(groups.by_node[static_cast<std::size_t>(next)]
                             [static_cast<std::size_t>(l)]),
            sub_bytes, step_start);
        if (step < nodes - 1) d += reduce_cost(2 * sub_bytes);
        step_end = std::max(step_end, d);
      }
      step_start = step_end;
    }
    stage_b[static_cast<std::size_t>(l)] = step_start;
  }

  // Stage C — intra-node all-gather: each lane broadcasts its now fully
  // reduced shard to its local peers.
  TimeNs end = t0;
  for (int k = 0; k < nodes; ++k) {
    const auto& node = groups.by_node[static_cast<std::size_t>(k)];
    for (int dst = 0; dst < g; ++dst) {
      TimeNs done = stage_b[static_cast<std::size_t>(dst)];
      for (int src = 0; src < g; ++src) {
        if (src == dst) continue;
        done = std::max(
            done, machine_.remote_write_time(
                      pe(node[static_cast<std::size_t>(src)]),
                      pe(node[static_cast<std::size_t>(dst)]), chunk_bytes,
                      stage_b[static_cast<std::size_t>(src)]));
      }
      end = std::max(end, done);
    }
  }
  return end;
}

sim::Co Communicator::all_reduce(std::int64_t n_elems, FloatBufs bufs,
                                 AllReduceAlgo algo) {
  const int n = size();
  FCC_CHECK(n_elems >= 0);
  if (n == 1 || n_elems == 0) {
    last_duration_ = 0;
    co_return;
  }
  co_await sim::delay(machine_.engine(), kSwOverheadNs);
  const TimeNs t0 = machine_.engine().now();

  // Functional result: elementwise sum across ranks, written to every rank
  // (algorithm-independent).
  if (bufs.functional()) {
    FCC_CHECK(static_cast<int>(bufs.per_rank.size()) == n);
    std::vector<float> sum(static_cast<std::size_t>(n_elems), 0.0f);
    for (int r = 0; r < n; ++r) {
      auto src = bufs.rank(r);
      FCC_CHECK(src.size() >= static_cast<std::size_t>(n_elems));
      for (std::int64_t i = 0; i < n_elems; ++i) {
        sum[static_cast<std::size_t>(i)] += src[static_cast<std::size_t>(i)];
      }
    }
    for (int r = 0; r < n; ++r) {
      auto dst = bufs.rank(r);
      std::copy(sum.begin(), sum.end(), dst.begin());
    }
  }

  if (algo == AllReduceAlgo::kAuto) algo = select_allreduce();
  const TimeNs end = co_await SweepAwaiter(
      machine_, t0, [this, n_elems, algo](TimeNs t) {
        switch (algo) {
          case AllReduceAlgo::kTwoPhaseDirect:
            return flat_direct_time(n_elems, t);
          case AllReduceAlgo::kRing:
            return flat_ring_time(n_elems, t);
          case AllReduceAlgo::kHierarchical:
            return hierarchical_allreduce_time(n_elems, t);
          case AllReduceAlgo::kAuto:
            break;  // unreachable: resolved above
        }
        return t;
      });

  last_duration_ = end - t0 + kSwOverheadNs;
  co_await sim::delay_until(machine_.engine(), end);
}

TimeNs Communicator::pairwise_a2a_time(std::int64_t chunk_elems, TimeNs t0) {
  const int n = size();
  const Bytes chunk_bytes = elems_to_bytes(chunk_elems);
  // Pairwise exchange in balanced rounds: round r pairs every source s
  // with destination (s + r) % n, so each round touches disjoint
  // egress/ingress ports and rounds pipeline back-to-back (the schedule
  // RCCL's pairwise All-to-All uses).
  TimeNs end = t0;
  for (int round = 1; round < n; ++round) {
    for (int s = 0; s < n; ++s) {
      const int d = (s + round) % n;
      end = std::max(end, machine_.remote_write_time(pe(s), pe(d),
                                                     chunk_bytes, t0));
    }
  }
  return std::max(end, t0 + reduce_cost(2 * chunk_bytes));  // local copy
}

TimeNs Communicator::node_aggregate_a2a_time(std::int64_t chunk_elems,
                                             TimeNs t0) {
  const NodeGroups& groups = groups_;
  FCC_CHECK_MSG(hierarchy_eligible(),
                "node-aggregated All-to-All needs >1 node with equal, >1 "
                "member counts; use the pairwise schedule for this span");
  const int g = static_cast<int>(groups.by_node.front().size());
  const int nodes = static_cast<int>(groups.by_node.size());
  const Bytes chunk_bytes = elems_to_bytes(chunk_elems);
  // Remote node r (as seen from any node) is aggregated by local member
  // r % g: that member gathers the node's traffic for r, ships it as ONE
  // NIC message of g*g chunks, and the peer aggregator scatters it. The
  // NIC still carries every byte, but descriptor-processor serialization
  // drops from g*g messages per node pair to one, and the gather/scatter
  // legs ride the fast intra-node fabric.
  auto owner = [&](int remote_node) { return remote_node % g; };

  // Phase 1 — intra-node gather: member s sends to aggregator l the chunks
  // bound for every node l owns (g destination GPUs per owned node).
  std::vector<std::vector<TimeNs>> gathered(
      static_cast<std::size_t>(nodes),
      std::vector<TimeNs>(static_cast<std::size_t>(g), t0));
  std::vector<std::int64_t> owned(static_cast<std::size_t>(g), 0);
  for (int k = 0; k < nodes; ++k) {
    const auto& node = groups.by_node[static_cast<std::size_t>(k)];
    std::fill(owned.begin(), owned.end(), 0);
    for (int r = 0; r < nodes; ++r) {
      if (r != k) ++owned[static_cast<std::size_t>(owner(r))];
    }
    for (int l = 0; l < g; ++l) {
      const Bytes gather_bytes =
          owned[static_cast<std::size_t>(l)] * g * chunk_bytes;
      TimeNs arrive = t0;
      for (int s = 0; s < g; ++s) {
        if (s == l || gather_bytes == 0) continue;
        arrive = std::max(
            arrive, machine_.remote_write_time(
                        pe(node[static_cast<std::size_t>(s)]),
                        pe(node[static_cast<std::size_t>(l)]), gather_bytes,
                        t0));
      }
      gathered[static_cast<std::size_t>(k)][static_cast<std::size_t>(l)] =
          arrive;
    }
  }

  // Phase 2 — inter-node: one aggregated message of g*g chunks per
  // ordered node pair, aggregator to aggregator.
  const Bytes pair_bytes = static_cast<Bytes>(g) * g * chunk_bytes;
  std::vector<std::vector<TimeNs>> landed(
      static_cast<std::size_t>(nodes),
      std::vector<TimeNs>(static_cast<std::size_t>(g), t0));
  for (int k = 0; k < nodes; ++k) {
    for (int r = 0; r < nodes; ++r) {
      if (r == k) continue;
      const int src_rank =
          groups.by_node[static_cast<std::size_t>(k)]
                        [static_cast<std::size_t>(owner(r))];
      const int dst_rank =
          groups.by_node[static_cast<std::size_t>(r)]
                        [static_cast<std::size_t>(owner(k))];
      const TimeNs d = machine_.remote_write_time(
          pe(src_rank), pe(dst_rank), pair_bytes,
          gathered[static_cast<std::size_t>(k)]
                  [static_cast<std::size_t>(owner(r))]);
      auto& cell = landed[static_cast<std::size_t>(r)]
                         [static_cast<std::size_t>(owner(k))];
      cell = std::max(cell, d);
    }
  }

  // Phase 3 — intra-node scatter of the received aggregates, plus the
  // node-local pairwise exchange that never left the fabric.
  TimeNs end = t0;
  for (int r = 0; r < nodes; ++r) {
    const auto& node = groups.by_node[static_cast<std::size_t>(r)];
    std::fill(owned.begin(), owned.end(), 0);
    for (int k = 0; k < nodes; ++k) {
      if (k != r) ++owned[static_cast<std::size_t>(owner(k))];
    }
    for (int dst = 0; dst < g; ++dst) {
      TimeNs done = t0;
      for (int l = 0; l < g; ++l) {
        const Bytes scatter_bytes =
            owned[static_cast<std::size_t>(l)] * g * chunk_bytes;
        if (scatter_bytes == 0) continue;
        const TimeNs ready = landed[static_cast<std::size_t>(r)]
                                   [static_cast<std::size_t>(l)];
        done = std::max(
            done, l == dst ? ready + reduce_cost(2 * scatter_bytes)
                           : machine_.remote_write_time(
                                 pe(node[static_cast<std::size_t>(l)]),
                                 pe(node[static_cast<std::size_t>(dst)]),
                                 scatter_bytes, ready));
      }
      // Node-local chunks: direct intra-node exchange.
      for (int s = 0; s < g; ++s) {
        if (s == dst) continue;
        done = std::max(done, machine_.remote_write_time(
                                  pe(node[static_cast<std::size_t>(s)]),
                                  pe(node[static_cast<std::size_t>(dst)]),
                                  chunk_bytes, t0));
      }
      done = std::max(done, t0 + reduce_cost(2 * chunk_bytes));
      end = std::max(end, done);
    }
  }
  return end;
}

sim::Co Communicator::all_to_all(std::int64_t chunk_elems, FloatBufs send,
                                 FloatBufs recv, AllToAllAlgo algo) {
  co_await sim::delay(machine_.engine(), kSwOverheadNs);
  const TimeNs t0 = machine_.engine().now();
  const int n = size();

  if (send.functional()) {
    FCC_CHECK(recv.functional());
    FCC_CHECK(static_cast<int>(send.per_rank.size()) == n);
    FCC_CHECK(static_cast<int>(recv.per_rank.size()) == n);
    const std::size_t total =
        static_cast<std::size_t>(n) * static_cast<std::size_t>(chunk_elems);
    for (int r = 0; r < n; ++r) {
      FCC_CHECK(send.rank(r).size() >= total);
      FCC_CHECK(recv.rank(r).size() >= total);
    }
    for (int s = 0; s < n; ++s) {
      for (int d = 0; d < n; ++d) {
        auto src = send.rank(s);
        auto dst = recv.rank(d);
        for (std::int64_t i = 0; i < chunk_elems; ++i) {
          dst[static_cast<std::size_t>(s * chunk_elems + i)] =
              src[static_cast<std::size_t>(d * chunk_elems + i)];
        }
      }
    }
  }

  if (algo == AllToAllAlgo::kAuto) algo = select_a2a();
  const TimeNs end = co_await SweepAwaiter(
      machine_, t0, [this, chunk_elems, algo](TimeNs t) {
        return algo == AllToAllAlgo::kNodeAggregate
                   ? node_aggregate_a2a_time(chunk_elems, t)
                   : pairwise_a2a_time(chunk_elems, t);
      });
  last_duration_ = end - t0 + kSwOverheadNs;
  co_await sim::delay_until(machine_.engine(), end);
}

sim::Co Communicator::all_to_all_v(const std::vector<std::int64_t>& counts,
                                   FloatBufs send, FloatBufs recv) {
  const int n = size();
  FCC_CHECK(static_cast<int>(counts.size()) == n * n);
  co_await sim::delay(machine_.engine(), kSwOverheadNs);
  const TimeNs t0 = machine_.engine().now();

  auto count = [&](int src, int dst) {
    return counts[static_cast<std::size_t>(src * n + dst)];
  };
  // Segment offsets: send side destination-major, recv side source-major.
  auto send_offset = [&](int src, int dst) {
    std::int64_t off = 0;
    for (int d = 0; d < dst; ++d) off += count(src, d);
    return off;
  };
  auto recv_offset = [&](int dst, int src) {
    std::int64_t off = 0;
    for (int s = 0; s < src; ++s) off += count(s, dst);
    return off;
  };

  if (send.functional()) {
    FCC_CHECK(recv.functional());
    for (int s = 0; s < n; ++s) {
      for (int d = 0; d < n; ++d) {
        auto src = send.rank(s);
        auto dst = recv.rank(d);
        const std::int64_t c = count(s, d);
        const std::int64_t so = send_offset(s, d);
        const std::int64_t ro = recv_offset(d, s);
        FCC_CHECK(static_cast<std::int64_t>(src.size()) >= so + c);
        FCC_CHECK(static_cast<std::int64_t>(dst.size()) >= ro + c);
        for (std::int64_t i = 0; i < c; ++i) {
          dst[static_cast<std::size_t>(ro + i)] =
              src[static_cast<std::size_t>(so + i)];
        }
      }
    }
  }

  const TimeNs end = co_await SweepAwaiter(
      machine_, t0, [this, n, &count](TimeNs t) {
        TimeNs e = t;
        for (int round = 1; round < n; ++round) {
          for (int s = 0; s < n; ++s) {
            const int d = (s + round) % n;
            const Bytes bytes = count(s, d) * 4;
            if (bytes == 0) continue;
            e = std::max(e,
                         machine_.remote_write_time(pe(s), pe(d), bytes, t));
          }
        }
        // Local segments are HBM copies.
        for (int r = 0; r < n; ++r) {
          e = std::max(e, t + reduce_cost(2 * count(r, r) * 4));
        }
        return e;
      });
  last_duration_ = end - t0 + kSwOverheadNs;
  co_await sim::delay_until(machine_.engine(), end);
}

}  // namespace fcc::ccl
