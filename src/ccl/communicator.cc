#include "ccl/communicator.h"

#include <algorithm>
#include <coroutine>
#include <functional>
#include <memory>
#include <numeric>
#include <utility>

#include "sim/task.h"

namespace fcc::ccl {

/// A collective's timing as data. Every register starts at the collective's
/// t0. A step waits on register `in`, writes `bytes` from rank `src` to rank
/// `dst` (no transfer when they are equal), adds `add` and raises register
/// `out` to the result. The collective ends at the latest register.
/// Register kStart is never written (t0 throughout); kEnd feeds only the
/// end.
constexpr int kStart = 0, kEnd = 1;
struct Schedule {
  struct Step {
    int src, dst;
    Bytes bytes;
    int in, out;
    TimeNs add;
  };
  std::vector<Step> steps;
  int regs = 2;

  /// Allocates `count` fresh registers; returns the first.
  int reg(int count = 1) { return (regs += count) - count; }
  void step(int src, int dst, Bytes bytes, int in, int out, TimeNs add = 0) {
    steps.push_back({src, dst, bytes, in, out, add});
  }
};

namespace {

constexpr Bytes elems_to_bytes(std::int64_t n) { return n * 4; }

/// Throws unless functional `bufs` hold n ranks, rank r at least `need(r)`
/// floats.
template <typename Need>
void check_bufs(const char* name, const FloatBufs& bufs, int n, Need need) {
  if (!bufs.functional()) return;
  FCC_CHECK_MSG(static_cast<int>(bufs.per_rank.size()) == n,
                name << ".per_rank.size() must be " << n << ", got "
                     << bufs.per_rank.size());
  for (int r = 0; r < n; ++r) {
    const auto got = static_cast<std::int64_t>(bufs.per_rank[r].size());
    FCC_CHECK_MSG(got >= need(r), name << ".rank(" << r
                                       << ").size() must be >= " << need(r)
                                       << ", got " << got);
  }
}

/// Appends a ring over `ranks` after register `in` and returns its last
/// register: m-1 reduce-scatter then m-1 all-gather steps, each moving
/// `bytes` per rank to its neighbour behind a step barrier (the slowest
/// link paces the ring anyway).
int ring(Schedule& s, const std::vector<int>& ranks, Bytes bytes, int in,
         TimeNs reduce) {
  const int m = static_cast<int>(ranks.size());
  for (int step = 0; step < 2 * (m - 1); ++step) {
    const int out = s.reg();
    for (int i = 0; i < m; ++i) {
      s.step(ranks[i], ranks[(i + 1) % m], bytes, in, out,
             step < m - 1 ? reduce : 0);
    }
    in = out;
  }
  return in;
}

/// Why a span whose members per node are `by_node` cannot run a forced
/// hierarchical algorithm.
std::string ineligible(const std::vector<std::vector<int>>& by_node) {
  std::string got;
  for (const auto& node : by_node) {
    got += (got.empty() ? "" : ", ") + std::to_string(node.size());
  }
  return " needs >1 node with equal, >1 member counts, got members per "
         "node [" + got + "]; use kAuto or a flat algorithm";
}

}  // namespace

Communicator::Communicator(gpu::Machine& machine, std::vector<PeId> members)
    : machine_(machine), members_(std::move(members)) {
  FCC_CHECK(!members_.empty());
  for (PeId pe : members_) FCC_CHECK(pe >= 0 && pe < machine_.num_pes());
  by_node_.resize(static_cast<std::size_t>(machine_.num_nodes()));
  for (int r = 0; r < size(); ++r) {
    by_node_[machine_.node_of(pe(r))].push_back(r);
  }
  std::erase_if(by_node_, [](const auto& node) { return node.empty(); });
  // The hierarchical algorithm needs several nodes, each contributing the
  // same number (> 1) of members.
  const std::size_t g = by_node_.front().size();
  eligible_ = by_node_.size() > 1 && g > 1 &&
              std::all_of(by_node_.begin(), by_node_.end(),
                          [g](const auto& node) { return node.size() == g; });
}

TimeNs Communicator::reduce_cost(Bytes bytes) const {
  // Reads of the incoming chunks + write of the result, at aggregate HBM
  // bandwidth (reduction kernels saturate the device).
  const auto& dev = machine_.device(members_.front());
  const double bw = dev.hbm().total_bandwidth(dev.spec().max_wg_slots());
  return static_cast<TimeNs>(static_cast<double>(bytes) / bw + 0.5);
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

/// Runs a collective's schedule and hands back its end time, recording
/// last_duration().
///
/// Serial machines run it inline in await_ready — no suspension, so the
/// run adds no engine event.
/// Sharded machines suspend the (shard-0) driver and defer the run to the
/// next window barrier, where every shard thread is parked: the run reads
/// and reserves link state across all shards data-race-free, then the
/// driver resumes at the exact computed end (a rewind entry when shard 0's
/// frontier already passed it — legal, the continuation only touches
/// shard-0 host state before its next >= lookahead delay). Collectives that
/// overlap other put traffic inside the same window therefore serialize
/// their reservations at the barrier, an ordering approximation consistent
/// with the sharded engine's same-timestamp tie-breaking caveat.
class Communicator::SweepAwaiter {
 public:
  SweepAwaiter(Communicator& comm, TimeNs t0,
               std::shared_ptr<const Schedule> schedule)
      : comm_(comm), t0_(t0), schedule_(std::move(schedule)) {}

  bool await_ready() {
    if (comm_.machine_.is_sharded()) return false;
    end_ = comm_.run(*schedule_, t0_);
    return true;
  }
  void await_suspend(std::coroutine_handle<> h) {
    comm_.machine_.call_at_barrier([this, h] {
      end_ = comm_.run(*schedule_, t0_);
      comm_.machine_.engine().schedule_resume_at_unchecked(end_, h);
    });
  }
  TimeNs await_resume() {
    comm_.last_duration_ = end_ - t0_ + kSwOverheadNs;
    return end_;
  }

 private:
  Communicator& comm_;
  TimeNs t0_;
  std::shared_ptr<const Schedule> schedule_;
  TimeNs end_ = 0;
};

TimeNs Communicator::run(const Schedule& s, TimeNs t0) {
  std::vector<TimeNs> reg(static_cast<std::size_t>(s.regs), t0);
  for (const Schedule::Step& step : s.steps) {
    TimeNs t = reg[step.in];
    if (step.src != step.dst) {
      t = machine_.remote_write_time(members_[step.src], members_[step.dst],
                                     step.bytes, t);
    }
    reg[step.out] = std::max(reg[step.out], t + step.add);
  }
  return *std::max_element(reg.begin(), reg.end());
}

std::shared_ptr<const Schedule> Communicator::memo(Builder build,
                                                   std::int64_t size) {
  if (build != memo_build_ || size != memo_size_) {
    memo_ = std::make_shared<const Schedule>((this->*build)(size));
    memo_build_ = build;
    memo_size_ = size;
  }
  return memo_;
}

Schedule Communicator::direct_schedule(std::int64_t n_elems) const {
  const int n = size();
  // Phase 1 (reduce-scatter): rank r owns chunk r; every peer pushes its
  // copy of chunk r to rank r, which reduces the n copies (register
  // owned + r).
  const Bytes chunk = elems_to_bytes((n_elems + n - 1) / n);
  const TimeNs reduce = reduce_cost(chunk * n);
  Schedule s;
  const int owned = s.reg(n);
  for (int dst = 0; dst < n; ++dst) {
    for (int src = 0; src < n; ++src) {
      if (src != dst) s.step(src, dst, chunk, kStart, owned + dst, reduce);
    }
  }
  // Phase 2 (all-gather): each rank broadcasts its reduced chunk.
  for (int src = 0; src < n; ++src) {
    for (int dst = 0; dst < n; ++dst) {
      if (src != dst) s.step(src, dst, chunk, owned + src, kEnd);
    }
  }
  return s;
}

Schedule Communicator::ring_schedule(std::int64_t n_elems) const {
  std::vector<int> ranks(static_cast<std::size_t>(size()));
  std::iota(ranks.begin(), ranks.end(), 0);
  const Bytes chunk = elems_to_bytes((n_elems + size() - 1) / size());
  Schedule s;
  ring(s, ranks, chunk, kStart, reduce_cost(2 * chunk));
  return s;
}

Schedule Communicator::hierarchical_schedule(std::int64_t n_elems) const {
  const int g = static_cast<int>(by_node_.front().size());
  const int nodes = static_cast<int>(by_node_.size());
  const std::int64_t chunk = (n_elems + g - 1) / g;  // per-lane shard
  const Bytes chunk_bytes = elems_to_bytes(chunk);
  Schedule s;

  // Stage A — intra-node reduce-scatter: lane l of each node ends owning
  // the node-local sum of shard l. Direct peer pushes over the scale-up
  // fabric, then the local reduction of g copies. Register lane + l: every
  // node's lane l holds its sum.
  const TimeNs reduce = reduce_cost(chunk_bytes * g);
  const int lane = s.reg(g);
  for (const auto& node : by_node_) {
    for (int l = 0; l < g; ++l) {
      for (int src = 0; src < g; ++src) {
        if (src == l) continue;
        s.step(node[src], node[l], chunk_bytes, kStart, lane + l, reduce);
      }
    }
  }

  // Stage B — inter-node ring AllReduce per lane: lane l's shard circles
  // the nodes in 2(nodes-1) steps of chunk/nodes each, crossing the NIC
  // (or torus) links only. Each lane's ring is bulk-synchronous.
  const Bytes sub = elems_to_bytes((chunk + nodes - 1) / nodes);
  std::vector<int> reduced(static_cast<std::size_t>(g));
  std::vector<int> ranks(static_cast<std::size_t>(nodes));
  for (int l = 0; l < g; ++l) {
    for (int k = 0; k < nodes; ++k) ranks[k] = by_node_[k][l];
    reduced[l] = ring(s, ranks, sub, lane + l, reduce_cost(2 * sub));
  }

  // Stage C — intra-node all-gather: each lane broadcasts its now fully
  // reduced shard to its local peers.
  for (const auto& node : by_node_) {
    for (int dst = 0; dst < g; ++dst) {
      for (int src = 0; src < g; ++src) {
        if (src == dst) continue;
        s.step(node[src], node[dst], chunk_bytes, reduced[src], kEnd);
      }
    }
  }
  return s;
}

Schedule Communicator::pairwise_schedule(std::int64_t chunk_elems) const {
  const int n = size();
  const Bytes chunk = elems_to_bytes(chunk_elems);
  // Pairwise exchange in balanced rounds: round r pairs every source s
  // with destination (s + r) % n, so each round touches disjoint
  // egress/ingress ports and rounds pipeline back-to-back (the schedule
  // RCCL's pairwise All-to-All uses).
  Schedule s;
  for (int round = 1; round < n; ++round) {
    for (int src = 0; src < n; ++src) {
      s.step(src, (src + round) % n, chunk, kStart, kEnd);
    }
  }
  s.step(0, 0, 0, kStart, kEnd, reduce_cost(2 * chunk));  // local copy
  return s;
}

Schedule Communicator::a2av_schedule(
    const std::vector<std::int64_t>& counts) const {
  const int n = size();
  auto bytes = [&](int src, int dst) {
    return elems_to_bytes(counts[src * n + dst]);
  };
  Schedule s;
  for (int round = 1; round < n; ++round) {
    for (int src = 0; src < n; ++src) {
      const int dst = (src + round) % n;
      if (bytes(src, dst) > 0) s.step(src, dst, bytes(src, dst), kStart, kEnd);
    }
  }
  // Local segments are HBM copies.
  for (int r = 0; r < n; ++r) {
    s.step(r, r, 0, kStart, kEnd, reduce_cost(2 * bytes(r, r)));
  }
  return s;
}

sim::Co Communicator::all_reduce(std::int64_t n_elems, FloatBufs bufs,
                                 AllReduceAlgo algo) {
  FCC_CHECK_MSG(n_elems >= 0,
                "all_reduce: n_elems must be >= 0, got " << n_elems);
  check_bufs("all_reduce: bufs", bufs, size(),
             [n_elems](int) { return n_elems; });
  FCC_CHECK_MSG(algo != AllReduceAlgo::kHierarchical || hierarchy_eligible(),
                "all_reduce: algo kHierarchical" << ineligible(by_node_));
  return all_reduce_co(n_elems, std::move(bufs), algo);
}

sim::Co Communicator::all_reduce_co(std::int64_t n_elems, FloatBufs bufs,
                                    AllReduceAlgo algo) {
  const int n = size();
  if (n == 1 || n_elems == 0) {
    last_duration_ = 0;
    co_return;
  }
  co_await sim::delay(machine_.engine(), kSwOverheadNs);
  const TimeNs t0 = machine_.engine().now();

  // Functional result: elementwise sum across ranks, written to every rank
  // (algorithm-independent).
  if (bufs.functional()) {
    std::vector<float> sum(static_cast<std::size_t>(n_elems), 0.0f);
    for (int r = 0; r < n; ++r) {
      std::transform(sum.begin(), sum.end(), bufs.rank(r).begin(),
                     sum.begin(), std::plus<>());
    }
    for (int r = 0; r < n; ++r) {
      std::copy(sum.begin(), sum.end(), bufs.rank(r).begin());
    }
  }

  if (algo == AllReduceAlgo::kAuto) algo = select_allreduce();
  Builder build = &Communicator::direct_schedule;
  if (algo == AllReduceAlgo::kRing) build = &Communicator::ring_schedule;
  if (algo == AllReduceAlgo::kHierarchical) {
    build = &Communicator::hierarchical_schedule;
  }
  const TimeNs end = co_await SweepAwaiter(*this, t0, memo(build, n_elems));
  co_await sim::delay_until(machine_.engine(), end);
}

sim::Co Communicator::all_to_all(std::int64_t chunk_elems, FloatBufs send,
                                 FloatBufs recv) {
  FCC_CHECK_MSG(chunk_elems >= 0,
                "all_to_all: chunk_elems must be >= 0, got " << chunk_elems);
  if (send.functional()) {
    FCC_CHECK_MSG(recv.functional(), "all_to_all: recv must be functional "
                                     "when send is, got an empty recv");
    const auto need = [&](int) { return size() * chunk_elems; };
    check_bufs("all_to_all: send", send, size(), need);
    check_bufs("all_to_all: recv", recv, size(), need);
  }
  return all_to_all_co(chunk_elems, nullptr, std::move(send), std::move(recv));
}

sim::Co Communicator::all_to_all_co(std::int64_t chunk_elems,
                                    const std::vector<std::int64_t>* counts,
                                    FloatBufs send, FloatBufs recv) {
  co_await sim::delay(machine_.engine(), kSwOverheadNs);
  const TimeNs t0 = machine_.engine().now();
  const int n = size();

  // Segments: send side destination-major, recv side source-major; each
  // chunk_elems long unless `counts` is the traffic matrix.
  if (send.functional()) {
    std::vector<std::int64_t> recv_off(static_cast<std::size_t>(n), 0);
    for (int s = 0; s < n; ++s) {
      auto src = send.rank(s).begin();
      for (int d = 0; d < n; ++d) {
        const std::int64_t c = counts ? (*counts)[s * n + d] : chunk_elems;
        std::copy(src, src + c, recv.rank(d).begin() + recv_off[d]);
        src += c;
        recv_off[d] += c;
      }
    }
  }

  // A named local: GCC 12 destroys a conditional's class temporary twice
  // inside a co_await operand.
  auto schedule =
      counts ? std::make_shared<const Schedule>(a2av_schedule(*counts))
             : memo(&Communicator::pairwise_schedule, chunk_elems);
  const TimeNs end = co_await SweepAwaiter(*this, t0, std::move(schedule));
  co_await sim::delay_until(machine_.engine(), end);
}

sim::Co Communicator::all_to_all_v(const std::vector<std::int64_t>& counts,
                                   FloatBufs send, FloatBufs recv) {
  const int n = size();
  FCC_CHECK_MSG(static_cast<int>(counts.size()) == n * n,
                "all_to_all_v: counts.size() must be " << n * n << ", got "
                                                       << counts.size());
  // What each rank sends (its row) and receives (its column).
  std::vector<std::int64_t> sent(static_cast<std::size_t>(n), 0);
  std::vector<std::int64_t> received(static_cast<std::size_t>(n), 0);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    FCC_CHECK_MSG(counts[i] >= 0, "all_to_all_v: counts[" << i
                                      << "] must be >= 0, got " << counts[i]);
    sent[i / n] += counts[i];
    received[i % n] += counts[i];
  }
  if (send.functional()) {
    FCC_CHECK_MSG(recv.functional(), "all_to_all_v: recv must be functional "
                                     "when send is, got an empty recv");
    check_bufs("all_to_all_v: send", send, n, [&](int r) { return sent[r]; });
    check_bufs("all_to_all_v: recv", recv, n,
               [&](int r) { return received[r]; });
  }
  return all_to_all_co(0, &counts, std::move(send), std::move(recv));
}

}  // namespace fcc::ccl
