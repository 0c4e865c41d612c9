#include "ccl/communicator.h"

#include <algorithm>
#include <coroutine>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <utility>

#include "sim/task.h"

namespace fcc::ccl {

/// A collective's timing as data. Every register starts at the collective's
/// t0. A step waits on register `in`, writes `bytes` from rank `src` to rank
/// `dst` (no transfer when they are equal), adds `add` and raises register
/// `out` to the result. A register is ready once every step writing it has
/// run; the collective ends at the latest register. Register kStart is
/// never written (ready at t0); kEnd feeds only the end.
constexpr int kStart = 0, kEnd = 1;
struct Schedule {
  struct Step {
    int src, dst;
    Bytes bytes;
    int in, out;
    TimeNs add;
    int index;  // builder order, which breaks ties between ready steps
  };
  std::vector<Step> steps;
  int regs = 2;
  /// The dependency graph, built once by `link`: per register, the number
  /// of steps writing it and the steps reading it, which `link` groups
  /// into steps[first_reader[r] .. first_reader[r + 1]), in builder order.
  std::vector<int> writers, first_reader;

  /// Allocates `count` fresh registers; returns the first.
  int reg(int count = 1) { return (regs += count) - count; }
  void step(int src, int dst, Bytes bytes, int in, int out, TimeNs add = 0) {
    steps.push_back(
        {src, dst, bytes, in, out, add, static_cast<int>(steps.size())});
  }

  /// Builds the dependency graph of the listed steps.
  void link() {
    writers.assign(static_cast<std::size_t>(regs), 0);
    first_reader.assign(static_cast<std::size_t>(regs) + 1, 0);
    for (const Step& st : steps) {
      ++writers[st.out];
      ++first_reader[st.in + 1];
    }
    std::partial_sum(first_reader.begin(), first_reader.end(),
                     first_reader.begin());
    // A stable counting sort by input register.
    std::vector<Step> grouped(steps.size());
    std::vector<int> next(first_reader.begin(), first_reader.end() - 1);
    for (const Step& st : steps) grouped[next[st.in]++] = st;
    steps = std::move(grouped);
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

/// `s` with its dependency graph built, shared by every run of it.
std::shared_ptr<const Schedule> linked(Schedule s) {
  s.link();
  return std::make_shared<const Schedule>(std::move(s));
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

/// The algorithms kAuto picks among, in tie-break order.
constexpr AllReduceAlgo kPriced[] = {AllReduceAlgo::kTwoPhaseDirect,
                                     AllReduceAlgo::kRing,
                                     AllReduceAlgo::kHierarchical};

/// `config` as an untraced serial machine, for pricing.
gpu::Machine::Config serial(gpu::Machine::Config config) {
  config.num_shards = 1;
  config.collect_trace = false;
  return config;
}

/// Applies every unhealthy site of `from` to `to`, a fabric built from the
/// same config (so with the same sites in the same order).
void copy_faults(hw::Topology& from, hw::Topology& to) {
  const auto& sites = from.fault_sites();
  for (int i = 0; i < static_cast<int>(sites.size()); ++i) {
    const hw::FaultSite& s = sites[static_cast<std::size_t>(i)];
    if (s.healthy()) continue;
    const hw::Link& wire = s.link != nullptr ? *s.link : s.nic->wire();
    if (s.nic != nullptr ? s.nic->dead() : wire.dead()) {
      to.apply_fault({.kind = hw::FaultKind::kDead, .site = i});
    }
    if (wire.derate() != 1.0) {
      to.apply_fault(
          {.kind = hw::FaultKind::kDerate, .site = i, .derate = wire.derate()});
    }
    if (wire.jitter_ns() != 0) {
      to.apply_fault({.kind = hw::FaultKind::kJitter,
                      .site = i,
                      .jitter_ns = wire.jitter_ns()});
    }
  }
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

AllReduceAlgo Communicator::select_allreduce(std::int64_t n_elems) {
  FCC_CHECK_MSG(n_elems >= 0,
                "select_allreduce: n_elems must be >= 0, got " << n_elems);
  hw::Topology& topo = machine_.topology();
  if (auto_epoch_ != topo.fault_epoch()) {
    auto_algo_.clear();
    auto_epoch_ = topo.fault_epoch();
  }
  const auto [it, miss] = auto_algo_.try_emplace(n_elems);
  if (miss) {
    gpu::Machine scratch(serial(machine_.config()));
    if (topo.has_faults()) copy_faults(topo, scratch.topology());
    const Prices p = Communicator(scratch, members_).prices(n_elems);
    it->second = *std::find_if(
        std::begin(kPriced), std::end(kPriced), [&p](AllReduceAlgo algo) {
          return p[static_cast<int>(algo)] ==
                 p[static_cast<int>(AllReduceAlgo::kAuto)];
        });
  }
  return it->second;
}

/// Runs a collective's schedule and hands back its end time, recording
/// last_duration().
///
/// Serial machines run it inline in await_ready — no suspension, so the
/// run adds no engine event.
/// Sharded machines suspend the (shard-0) driver and post the run as a
/// barrier call (ShardedEngine::post_at_barrier) keyed by t0: it runs at
/// the next window barrier, after the deferred-put replay hook, with every
/// shard thread parked. The run reads and reserves link state across all
/// shards data-race-free, then the awaiter, a sim::Call, resumes the
/// driver at the exact computed end (a rewind call,
/// Engine::schedule_call_at_unchecked, when shard 0's frontier already
/// passed it — legal, the continuation only touches shard-0 host state
/// before its next >= lookahead delay). Collectives that overlap other put
/// traffic inside the same window therefore serialize their reservations
/// at the barrier, an ordering approximation consistent with the sharded
/// engine's same-timestamp tie-breaking caveat. The awaiter is its own
/// class, not a sim::suspend, because it hands back the end time.
class Communicator::SweepAwaiter : sim::Call {
 public:
  SweepAwaiter(Communicator& comm, TimeNs t0,
               std::shared_ptr<const Schedule> schedule)
      : Call{&resume}, comm_(comm), t0_(t0), schedule_(std::move(schedule)) {}

  bool await_ready() {
    if (comm_.machine_.is_sharded()) return false;
    end_ = comm_.run(*schedule_, t0_);
    return true;
  }
  void await_suspend(std::coroutine_handle<> h) {
    h_ = h;
    comm_.machine_.sharded().post_at_barrier(0, t0_, [this] {
      end_ = comm_.run(*schedule_, t0_);
      comm_.machine_.engine().schedule_call_at_unchecked(end_, this);
    });
  }
  TimeNs await_resume() {
    comm_.last_duration_ = end_ - t0_ + kSwOverheadNs;
    return end_;
  }

 private:
  static void resume(sim::Call* c) {
    static_cast<SweepAwaiter*>(c)->h_.resume();
  }

  Communicator& comm_;
  TimeNs t0_;
  std::shared_ptr<const Schedule> schedule_;
  TimeNs end_ = 0;
  std::coroutine_handle<> h_;
};

TimeNs Communicator::run(const Schedule& s, TimeNs t0) {
  // Per register: its time so far and its writers not yet reserved.
  struct Reg {
    TimeNs t;
    int pending;
  };
  std::vector<Reg> reg(static_cast<std::size_t>(s.regs));
  // A ready register's unreserved readers, steps[next .. end), all ready
  // at t. The next step to reserve is the least (t, builder index) over
  // the current run and a min-heap of the others; keeping the current run
  // out of the heap spares a pop and a push per step while it stays least.
  struct Run {
    TimeNs t;
    int next, end;
  };
  const auto later = [&s](const Run& a, const Run& b) {
    return std::pair(a.t, s.steps[a.next].index) >
           std::pair(b.t, s.steps[b.next].index);
  };
  std::vector<Run> heap;
  heap.reserve(static_cast<std::size_t>(s.regs));
  const auto release = [&](int r, TimeNs t) {
    if (s.first_reader[r] == s.first_reader[r + 1]) return;
    heap.push_back({t, s.first_reader[r], s.first_reader[r + 1]});
    std::push_heap(heap.begin(), heap.end(), later);
  };
  for (int r = 0; r < s.regs; ++r) {
    reg[r] = {t0, s.writers[r]};
    if (s.writers[r] == 0) release(r, t0);
  }
  Run cur{t0, 0, 0};
  for (;;) {
    if (cur.next == cur.end || (!heap.empty() && later(cur, heap.front()))) {
      if (heap.empty()) break;
      std::pop_heap(heap.begin(), heap.end(), later);
      std::swap(cur, heap.back());
      if (heap.back().next == heap.back().end) {
        heap.pop_back();
      } else {
        std::push_heap(heap.begin(), heap.end(), later);
      }
    }
    const Schedule::Step& step = s.steps[cur.next++];
    TimeNs t = cur.t;
    if (step.src != step.dst) {
      t = machine_.remote_write_time(members_[step.src], members_[step.dst],
                                     step.bytes, t);
    }
    Reg& out = reg[step.out];
    out.t = std::max(out.t, t + step.add);
    if (--out.pending == 0) release(step.out, out.t);
  }
  TimeNs end = t0;
  for (const Reg& r : reg) end = std::max(end, r.t);
  return end;
}

std::shared_ptr<const Schedule> Communicator::memo(Builder build,
                                                   std::int64_t size) {
  if (build != memo_build_ || size != memo_size_) {
    memo_ = linked((this->*build)(size));
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
  s.steps.reserve(static_cast<std::size_t>(2 * n * (n - 1)));
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
  s.steps.reserve(static_cast<std::size_t>(2 * size() * (size() - 1)));
  ring(s, ranks, chunk, kStart, reduce_cost(2 * chunk));
  return s;
}

Schedule Communicator::hierarchical_schedule(std::int64_t n_elems) const {
  const int g = static_cast<int>(by_node_.front().size());
  const int nodes = static_cast<int>(by_node_.size());
  const std::int64_t chunk = (n_elems + g - 1) / g;  // per-lane shard
  const Bytes chunk_bytes = elems_to_bytes(chunk);
  Schedule s;
  s.steps.reserve(static_cast<std::size_t>(2 * nodes * g * (g - 1) +
                                           2 * g * nodes * (nodes - 1)));

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

Schedule Communicator::a2av_schedule(
    const std::vector<std::int64_t>& counts) const {
  const int n = size();
  auto bytes = [&](int src, int dst) {
    return elems_to_bytes(counts[src * n + dst]);
  };
  // Pairwise exchange in balanced rounds: round r pairs every source s
  // with destination (s + r) % n, so each round touches disjoint
  // egress/ingress ports and rounds pipeline back-to-back (the schedule
  // RCCL's pairwise All-to-All uses). Empty segments post nothing.
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

  if (algo == AllReduceAlgo::kAuto) algo = select_allreduce(n_elems);
  const TimeNs end = co_await SweepAwaiter(
      *this, t0, memo(all_reduce_builder(algo), n_elems));
  co_await sim::delay_until(machine_.engine(), end);
}

Communicator::Builder Communicator::all_reduce_builder(AllReduceAlgo algo) {
  switch (algo) {
    case AllReduceAlgo::kRing:
      return &Communicator::ring_schedule;
    case AllReduceAlgo::kHierarchical:
      return &Communicator::hierarchical_schedule;
    case AllReduceAlgo::kAuto:
    case AllReduceAlgo::kTwoPhaseDirect:
      break;
  }
  return &Communicator::direct_schedule;
}

Communicator::Prices Communicator::prices(std::int64_t n_elems) {
  // Every schedule runs from where the previous one ended, so each finds
  // every link idle.
  Prices p;
  std::optional<TimeNs>& least = p[static_cast<int>(AllReduceAlgo::kAuto)];
  TimeNs t0 = 0;
  for (const AllReduceAlgo algo : kPriced) {
    auto& price = p[static_cast<int>(algo)];
    if (algo == AllReduceAlgo::kHierarchical && !eligible_) continue;
    if (size() == 1 || n_elems == 0) {
      price = 0;  // all_reduce returns at once
    } else {
      Schedule s = (this->*all_reduce_builder(algo))(n_elems);
      s.link();
      const TimeNs end = run(s, t0);
      price = end - t0 + kSwOverheadNs;
      t0 = end;
    }
    if (!least || *price < *least) least = price;
  }
  return p;
}

std::vector<std::optional<TimeNs>> Communicator::price_all_reduce(
    const gpu::Machine::Config& config, std::int64_t n_elems,
    std::span<const AllReduceAlgo> algos) {
  FCC_CHECK_MSG(n_elems >= 0,
                "price_all_reduce: n_elems must be >= 0, got " << n_elems);
  gpu::Machine machine(serial(config));
  std::vector<PeId> pes(static_cast<std::size_t>(machine.num_pes()));
  std::iota(pes.begin(), pes.end(), 0);
  const Prices p = Communicator(machine, std::move(pes)).prices(n_elems);
  std::vector<std::optional<TimeNs>> out;
  for (const AllReduceAlgo algo : algos) {
    out.push_back(p[static_cast<int>(algo)]);
  }
  return out;
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
  return all_to_all_co(
      std::vector<std::int64_t>(static_cast<std::size_t>(size() * size()),
                                chunk_elems),
      std::move(send), std::move(recv));
}

sim::Co Communicator::all_to_all_co(std::vector<std::int64_t> counts,
                                    FloatBufs send, FloatBufs recv) {
  co_await sim::delay(machine_.engine(), kSwOverheadNs);
  const TimeNs t0 = machine_.engine().now();
  const int n = size();

  // Segments: send side destination-major, recv side source-major.
  if (send.functional()) {
    std::vector<std::int64_t> recv_off(static_cast<std::size_t>(n), 0);
    for (int s = 0; s < n; ++s) {
      auto src = send.rank(s).begin();
      for (int d = 0; d < n; ++d) {
        const std::int64_t c = counts[s * n + d];
        std::copy(src, src + c, recv.rank(d).begin() + recv_off[d]);
        src += c;
        recv_off[d] += c;
      }
    }
  }

  const TimeNs end =
      co_await SweepAwaiter(*this, t0, linked(a2av_schedule(counts)));
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
  return all_to_all_co(counts, std::move(send), std::move(recv));
}

}  // namespace fcc::ccl
