// Symmetric flag arrays with awaitable readiness (sliceRdy analog).
//
// Flags live in symmetric memory; producers set them via remote PUTs (the
// shmem world delivers the write at the modeled arrival time as a compact
// engine event: set_update / add_update build the sim::FlagUpdate, which
// the engine applies through this array's sim::FlagTarget id), consumers
// wait for a flag to reach a threshold. Waiting is condition-based rather
// than busy-poll: a GPU WG spinning on a cached flag consumes negligible
// memory bandwidth, so the idealization costs nothing in timing and keeps
// event counts linear.
//
// A waiter is a sim::Call. A persistent-kernel slot waits with
// wait_ge_then (or the strided poll_then) on its own record, the way its
// other steps run (gpu::KernelRun); a driver coroutine `co_await`s
// wait_ge, one sim::suspend over wait_ge_then.
//
// Wakeups are *targeted*: `set`/`add` schedules exactly the waiters whose
// threshold the new value meets, in registration order, one zero-delay
// call event each; there is no re-check loop and no per-wait frame.
//
// Layout. Flag count grows as PEs^2 in the fused operators (one sliceRdy
// flag per source PE, table and slice group; per-(peer, slot) arrive and
// broadcast flags), while few flags have a waiter at any moment. So a flag
// is 12 bytes: its 8-byte value and the 4-byte head of its waiter list.
// Waiters are nodes {threshold, call, next, registration order} in a pool
// with a free list, one pool per PE: a PE's flags are touched only from its
// home shard (local waits and stores run there, remote updates arrive as
// flag events applied on the owner's engine; see shmem::World), so a per-PE
// pool needs no lock on the sharded engine. A flag's list is kept sorted by
// threshold, stable in registration order, so a wake pops a prefix. Warm
// waits reuse freed nodes and allocate nothing. When it replaced a
// per-flag waiter vector, the layout cut the peak RSS of the bench/perf
// paper_ops workload, whose operators all stay warm, from 16.8 to 10.7 MB;
// with flag PUTs delivered as compact engine events that workload now
// peaks at 9.9 MB (4-vCPU x86-64 host, GCC 12.2 Release).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "sim/engine.h"
#include "sim/task.h"

namespace fcc::shmem {

class FlagArray final : public sim::FlagTarget {
 public:
  /// Single-engine form: every PE's wakeups go through `engine` — a
  /// convenience for serial machines, equivalent to the per-PE form with
  /// every entry pointing at the one engine.
  FlagArray(sim::Engine& engine, int num_pes, std::size_t n)
      : FlagArray(std::vector<sim::Engine*>(
                      static_cast<std::size_t>(num_pes), &engine),
                  n) {}

  /// Sharded form: PE `p`'s flags wake on `per_pe_engines[p]` — its home
  /// shard. A flag's state (value + waiters) is only ever touched from that
  /// shard: local waits and stores run there, and remote updates arrive as
  /// flag events on the owner's engine (see shmem::World). The array may be
  /// built inside a threaded run: its sim::FlagTarget id is published
  /// before any update naming it can cross a shard barrier.
  FlagArray(const std::vector<sim::Engine*>& per_pe_engines, std::size_t n)
      : pools_(per_pe_engines.size()),
        n_(n),
        values_(per_pe_engines.size() * n, 0),
        heads_(per_pe_engines.size() * n, kNil) {
    // A flag update (set_update, add_update) carries a 32-bit flat index.
    FCC_CHECK(values_.size() <= std::numeric_limits<std::uint32_t>::max());
    for (std::size_t p = 0; p < pools_.size(); ++p) {
      FCC_DCHECK(per_pe_engines[p] != nullptr);
      pools_[p].engine = per_pe_engines[p];
    }
  }

  ~FlagArray() override { FCC_DCHECK(total_waiters() == 0); }

  std::size_t size() const { return n_; }
  int num_pes() const { return static_cast<int>(pools_.size()); }

  std::uint64_t read(PeId pe, std::size_t i) const {
    return values_[flat(pe, i)];
  }

  /// Local (or delivered-remote) store to the flag; wakes satisfied waiters.
  /// While waiters are armed the value must not decrease: a targeted wakeup
  /// commits the waiter at notify time and there is no re-check at resume
  /// (shmem flags are monotonic — readiness bits and arrival counters).
  void set(PeId pe, std::size_t i, std::uint64_t v) {
    const std::size_t f = flat(pe, i);
    FCC_DCHECK(heads_[f] == kNil || v >= values_[f]);
    values_[f] = v;
    wake(pe, f);
  }

  /// Fetch-add used for arrival counters; wakes satisfied waiters; returns
  /// the new value.
  std::uint64_t add(PeId pe, std::size_t i, std::uint64_t v) {
    const std::size_t f = flat(pe, i);
    values_[f] += v;
    wake(pe, f);
    return values_[f];
  }

  /// The update a delivered flag PUT applies: set(pe, i, 1) (sliceRdy,
  /// per-slot arrive and broadcast flags). Post it with World::put.
  sim::FlagUpdate set_update(PeId pe, std::size_t i) const {
    return sim::FlagUpdate::set(*this, static_cast<std::uint32_t>(flat(pe, i)));
  }

  /// The update a delivered remote atomic applies: add(pe, i, amount), for
  /// 1 <= amount <= sim::FlagUpdate::kMaxAmount.
  sim::FlagUpdate add_update(PeId pe, std::size_t i,
                             std::uint64_t amount) const {
    return sim::FlagUpdate::add(*this, static_cast<std::uint32_t>(flat(pe, i)),
                                amount);
  }

  /// Engine-side delivery of set_update / add_update (sim::FlagTarget).
  void apply_update(std::uint32_t f, std::uint32_t amount) override {
    const PeId pe = static_cast<PeId>(f / n_);
    if (amount == 0) {
      FCC_DCHECK(heads_[f] == kNil || values_[f] <= 1);
      values_[f] = 1;
    } else {
      values_[f] += amount;
    }
    wake(pe, f);
  }

  /// Runs `next` on `c` once flag[pe][i] >= v (shmem_wait_until for a
  /// call chain), as a zero-delay call event at the store that meets it.
  /// Returns false, scheduling nothing, when the flag already meets it:
  /// the chain goes on.
  bool wait_ge_then(PeId pe, std::size_t i, std::uint64_t v, sim::Call& c,
                    sim::Call::Fn next) {
    const std::size_t f = flat(pe, i);
    const std::uint32_t threshold = threshold32(v);
    if (values_[f] >= threshold) return false;
    c.fn = next;
    Pool& pool = pools_[f / n_];
    std::uint32_t w = pool.free;
    if (w != kNil) {
      pool.free = pool.nodes[w].next;
    } else {
      FCC_CHECK(pool.nodes.size() < kNil);
      w = static_cast<std::uint32_t>(pool.nodes.size());
      pool.nodes.emplace_back();
    }
    // `order` only tiebreaks waiters on the same flag, all registered on
    // this PE; it is compared modulo 2^32 (see wake).
    pool.nodes[w] = {threshold, &c, kNil, pool.seq++};
    ++pool.live;
    // Insert after every waiter with threshold <= this one: the list stays
    // sorted by threshold, and stable in registration order.
    std::uint32_t* link = &heads_[f];
    while (*link != kNil && pool.nodes[*link].threshold <= threshold) {
      link = &pool.nodes[*link].next;
    }
    pool.nodes[w].next = *link;
    *link = w;
    return true;
  }

  /// The strided flag poll a persistent WG runs after its queue drains,
  /// each slot a distinct subset: flags [pe][i] for i = first, first +
  /// stride, ... < end, each until it reaches threshold(i). `i` is the
  /// poll's position, kept in the caller's record (start it at `first`):
  /// at the first flag still down, registers `next` on `c` for it, moves
  /// `i` past it and returns true; `next` polls on from there. Returns
  /// false once every flag is up.
  template <typename Threshold>
  bool poll_then(PeId pe, int& i, int stride, int end,
                 const Threshold& threshold, sim::Call& c,
                 sim::Call::Fn next) {
    for (; i < end; i += stride) {
      if (wait_ge_then(pe, static_cast<std::size_t>(i), threshold(i), c,
                       next)) {
        i += stride;
        return true;
      }
    }
    return false;
  }

  /// wait_ge_then for a driver coroutine: suspends until flag[pe][i] >= v.
  /// Already-satisfied waits do not suspend and cost no events.
  auto wait_ge(PeId pe, std::size_t i, std::uint64_t v) {
    return sim::suspend([=, this](sim::Call& c, sim::Call::Fn fn) {
      return wait_ge_then(pe, i, v, c, fn);
    });
  }

  /// Waiters currently suspended on flag[pe][i] (tests / diagnostics).
  std::size_t num_waiters(PeId pe, std::size_t i) const {
    const Pool& pool = pools_[static_cast<std::size_t>(pe)];
    std::size_t n = 0;
    for (std::uint32_t w = heads_[flat(pe, i)]; w != kNil;
         w = pool.nodes[w].next) {
      ++n;
    }
    return n;
  }

  /// Waiters suspended anywhere in the array (leak checks under churn).
  std::size_t total_waiters() const {
    std::size_t n = 0;
    for (const Pool& pool : pools_) n += pool.live;
    return n;
  }

  /// One registered waiter: flag[pe][index] is at `value`, the waiter needs
  /// `threshold`. Snapshot for deadlock diagnostics.
  struct PendingWait {
    PeId pe = 0;
    std::size_t index = 0;
    std::uint64_t value = 0;
    std::uint64_t threshold = 0;
  };

  /// Every registered waiter, coroutine or call chain, in (flag,
  /// threshold) order — what a deadlocked operator is actually blocked on
  /// (FusedOp::deadlock_report).
  std::vector<PendingWait> pending_waits() const {
    std::vector<PendingWait> out;
    for (std::size_t f = 0; f < heads_.size(); ++f) {
      const Pool& pool = pools_[f / n_];
      for (std::uint32_t w = heads_[f]; w != kNil; w = pool.nodes[w].next) {
        out.push_back({static_cast<PeId>(f / n_), f % n_, values_[f],
                       pool.nodes[w].threshold});
      }
    }
    return out;
  }

  /// Throws, naming the first waited-on flag, unless no waiter is
  /// registered. Dropping or resetting an array under a live waiter would
  /// strand its coroutine forever (its threshold refers to the previous
  /// run's counter), so the churn guard checks loudly rather than leaving
  /// it to the destructor's DCHECK.
  void check_no_waiters() const {
    const std::size_t waiters = total_waiters();
    if (waiters == 0) return;
    const auto f = static_cast<std::size_t>(
        std::find_if(heads_.begin(), heads_.end(),
                     [](std::uint32_t w) { return w != kNil; }) -
        heads_.begin());
    FCC_CHECK_MSG(waiters == 0, "flag array reset with "
                                    << waiters
                                    << " waiter(s) registered, first on flag["
                                    << f / n_ << "][" << f % n_ << "]");
  }

  /// Returns the array to its freshly-constructed state: all values zero.
  /// Serving workloads reuse one array across back-to-back operator runs
  /// instead of reallocating; the pools keep their freed nodes, so the
  /// next run's waits allocate nothing.
  void reset() {
    check_no_waiters();
    std::fill(values_.begin(), values_.end(), 0);
  }

 private:
  static constexpr std::uint32_t kNil =
      std::numeric_limits<std::uint32_t>::max();

  struct Node {
    std::uint64_t threshold;
    sim::Call* call;
    std::uint32_t next;   // next waiter on the same flag, or kNil
    std::uint32_t order;  // registration sequence (wake-order tiebreak)
  };

  /// One PE's waiter nodes, touched only from that PE's home shard. Each
  /// pool has its own cache lines, so that pools of PEs on different
  /// shards do not share one.
  struct alignas(64) Pool {
    std::vector<Node> nodes;
    std::vector<std::uint32_t> batch;  // wake scratch: satisfied nodes
    sim::Engine* engine = nullptr;     // the PE's home-shard engine
    std::uint32_t free = kNil;         // free-list head, through Node::next
    std::uint32_t live = 0;            // nodes on some flag's list
    std::uint32_t seq = 0;             // next Node::order
  };

  /// A waiter's threshold, checked to fit 32 bits.
  static std::uint32_t threshold32(std::uint64_t v) {
    FCC_CHECK_MSG(v <= std::numeric_limits<std::uint32_t>::max(),
                  "wait_ge threshold " << v << " exceeds 32 bits");
    return static_cast<std::uint32_t>(v);
  }

  std::size_t flat(PeId pe, std::size_t i) const {
    FCC_DCHECK(pe >= 0 && pe < num_pes());
    FCC_DCHECK(i < n_);
    return static_cast<std::size_t>(pe) * n_ + i;
  }

  /// Schedules every waiter whose threshold the flag's value now meets —
  /// the list's sorted prefix — in registration order, and frees its node.
  void wake(PeId pe, std::size_t f) {
    std::uint32_t& head = heads_[f];
    if (head == kNil) return;
    Pool& pool = pools_[static_cast<std::size_t>(pe)];
    const std::uint64_t v = values_[f];
    Node* nodes = pool.nodes.data();
    const std::uint32_t first = head;
    if (nodes[first].threshold > v) return;
    const std::uint32_t second = nodes[first].next;
    if (second == kNil || nodes[second].threshold > v) {
      // One satisfied waiter, the common case: no ordering to do.
      head = second;
      schedule(pool, first);
      return;
    }
    std::vector<std::uint32_t>& batch = pool.batch;
    batch.clear();
    std::uint32_t w = first;
    for (; w != kNil && nodes[w].threshold <= v; w = nodes[w].next) {
      batch.push_back(w);
    }
    head = w;
    // Live waiters on one flag span far fewer than 2^31 registrations, so
    // the wrapped difference orders them.
    std::sort(batch.begin(), batch.end(),
              [nodes](std::uint32_t a, std::uint32_t b) {
                return static_cast<std::int32_t>(nodes[a].order -
                                                 nodes[b].order) < 0;
              });
    for (std::uint32_t b : batch) schedule(pool, b);
  }

  /// Schedules node `w`'s waiter now and returns the node to the free
  /// list.
  static void schedule(Pool& pool, std::uint32_t w) {
    Node& node = pool.nodes[w];
    pool.engine->schedule_call_at(pool.engine->now(), node.call);
    node.next = pool.free;
    pool.free = w;
    --pool.live;
  }

  std::vector<Pool> pools_;            // per PE
  std::size_t n_;                      // flags per PE
  std::vector<std::uint64_t> values_;  // [pe * n + i]
  std::vector<std::uint32_t> heads_;   // [pe * n + i]: first waiter, or kNil
};

}  // namespace fcc::shmem
