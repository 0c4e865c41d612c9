// GPU-initiated communication world (ROC_SHMEM analog).
//
// `put_nbi` is issued from inside a workgroup coroutine: the issuing WG pays
// the API/issue latency, the payload's channel occupancy is reserved at
// issue time (DMA-queue semantics), and an optional delivery callback runs
// when the bytes land at the destination — that is where functional-mode
// memcpys and remote flag stores happen.
//
// Ordering model: every route class the topology resolves — self (HBM
// copy), intra-node (fabric/switch hop chain), inter-node (NIC and/or
// torus rings) — is a FIFO channel: a PUT issued after another on the same
// channel also delivers after it, because hop reservations are claimed in
// issue order. `fence()` therefore costs only its instruction latency —
// matching the HDP flush + ordering semantics the paper relies on — and
// `quiet()` waits for all of this PE's outstanding deliveries.
//
// Sharded machines (gpu::Machine num_shards > 1) keep every piece of World
// state shard-local: outstanding counters, drain waiters, and per-PE put
// counters are only touched from the owning PE's home shard. Inter-node
// PUTs follow one of two paths:
//
//   * eager (fully-connected / switched / multi-rail): the route's state is
//     source-node-local, so the reservation happens at issue time exactly
//     as in the serial engine; only the *delivery* callback crosses shards,
//     as a mailbox message applied on the destination's shard.
//   * deferred (torus): routes ride ring links owned by third-party nodes,
//     so reservations are queued per shard and replayed at every window
//     barrier in (issue time, src PE, per-PE seq) order — a single serial
//     consistency point that matches the serial engine's time-ordered
//     reservation sequence. With one PE per node and one operator in
//     flight this reproduces the serial engine's same-timestamp issue
//     order exactly (per-PE chains are spawned and advance in PE order);
//     nodes with several GPUs — or several concurrently-running operators,
//     e.g. serving lanes — can interleave same-timestamp issues across PEs
//     in an emergent event order no per-shard replay can reconstruct, so
//     byte-identity on deferred fabrics is only guaranteed for single-GPU
//     nodes running one operator at a time.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "gpu/machine.h"
#include "sim/co.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace fcc::shmem {

class World {
 public:
  /// Issue-cost classes for a PUT.
  enum class IssueKind {
    kRdma,       // post descriptor + doorbell from the kernel (scale-out)
    kStore,      // direct remote stores over the fabric (scale-up zero-copy)
    kNone,       // already accounted by the caller
  };

  explicit World(gpu::Machine& machine);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  gpu::Machine& machine() { return machine_; }
  int n_pes() const { return machine_.num_pes(); }

  /// Awaiter for one put_nbi(). A PUT with a nonzero issue latency charges
  /// it to the source device and suspends for it; a zero-latency PUT never
  /// suspends. Either way the PUT is issued on resume.
  struct [[nodiscard]] Put {
    World& w;
    PeId src;
    PeId dst;
    Bytes bytes;
    TimeNs latency;
    std::function<void()> on_deliver;
    bool await_ready() const noexcept { return latency == 0; }
    void await_suspend(std::coroutine_handle<> h) {
      w.machine_.device(src).busy_wait(latency).await_suspend(h);
    }
    void await_resume() { w.issue_put(src, dst, bytes, std::move(on_deliver)); }
  };

  /// Non-blocking PUT of `bytes` from `src` to `dst`. `co_await` returns to
  /// the caller as soon as the issue latency has elapsed (at once for a
  /// zero-latency kind); `on_deliver` (may be empty) runs when the data is
  /// visible at `dst` — on `dst`'s home shard when the machine is sharded.
  Put put_nbi(PeId src, PeId dst, Bytes bytes, IssueKind kind,
              std::function<void()> on_deliver = {}) {
    return Put{*this, src, dst, bytes, issue_latency(src, dst, kind),
               std::move(on_deliver)};
  }

  /// Orders prior PUTs from `src` before subsequent ones (per destination).
  /// FIFO channels already guarantee this; only the instruction cost is
  /// charged.
  sim::Delay fence(PeId src) {
    return sim::delay(machine_.engine_of(src), kFenceCostNs);
  }

  /// Blocks until every PUT issued by `src` has been delivered. The wakeup
  /// is targeted: waiters are resumed only when the outstanding count hits
  /// zero (the loop re-checks in case a same-time event issued a new PUT
  /// between the wake and the resume). Works across shards: a deferred or
  /// remote delivery finishes tracking via a message on `src`'s shard, so
  /// the counter and waiter list stay shard-local.
  sim::Co quiet(PeId src) {
    auto& count = outstanding_[static_cast<std::size_t>(src)];
    while (count > 0) {
      co_await DrainAwaiter{*this, src};
    }
  }

  std::int64_t puts_issued() const {
    std::int64_t total = 0;
    for (const std::int64_t c : puts_issued_) total += c;
    return total;
  }
  int outstanding(PeId src) const {
    return outstanding_[static_cast<std::size_t>(src)];
  }

  /// GPU-side issue latency for one PUT of the given kind. A kRdma PUT
  /// only pays the descriptor-post overhead when the resolved route
  /// actually leaves the node; routes that stay on scale-up links issue as
  /// plain stores regardless of what the caller requested.
  TimeNs issue_latency(PeId src, PeId dst, IssueKind kind) const {
    switch (kind) {
      case IssueKind::kRdma:
        return machine_.route_class(src, dst) == hw::RouteClass::kInterNode
                   ? machine_.config().ib.gpu_post_overhead_ns
                   : machine_.config().fabric.store_issue_overhead_ns;
      case IssueKind::kStore:
        return machine_.config().fabric.store_issue_overhead_ns;
      case IssueKind::kNone:
        return 0;
    }
    return 0;
  }

  static constexpr TimeNs kFenceCostNs = 50;

 private:
  struct DrainAwaiter {
    World& w;
    PeId src;
    bool await_ready() const noexcept {
      return w.outstanding_[static_cast<std::size_t>(src)] == 0;
    }
    void await_suspend(std::coroutine_handle<> h) {
      w.drain_waiters_[static_cast<std::size_t>(src)].push_back(h);
    }
    void await_resume() const noexcept {}
  };

  /// An inter-node PUT whose route reservation waits for the next window
  /// barrier (torus: the route's links are not source-shard-owned).
  struct PendingPut {
    TimeNs t;  // issue-complete time on the source shard
    PeId src;
    PeId dst;
    Bytes bytes;
    std::function<void()> cb;
  };

  /// Per-shard deferred queue, cache-line padded: appended only by the
  /// owning shard's thread during a window, drained serially at barriers.
  struct alignas(64) DeferredShard {
    std::vector<PendingPut> puts;
  };

  /// Sort key of one deferred PUT in the barrier replay.
  struct ReplayTag {
    TimeNs t;
    PeId src;
    int shard;
    std::size_t idx;
  };

  /// Post-issue bookkeeping and delivery scheduling; see the header comment
  /// for the eager/deferred split. Defined in world.cc.
  void issue_put(PeId src, PeId dst, Bytes bytes, std::function<void()> cb);

  /// Barrier hook (deferred mode): replays all queued reservations in
  /// (issue time, src PE, per-PE seq) order and posts their deliveries.
  void drain_deferred();

  /// Schedules the serial-shape delivery event ({callback; finish}) on `e`.
  void schedule_delivery(sim::Engine& e, TimeNs t, PeId src,
                         std::function<void()> cb) {
    auto* self = this;
    e.schedule_at(t, [self, src, cb = std::move(cb)] {
      if (cb) cb();
      self->finish_tracking(src);
    });
  }

  void start_tracking(PeId src) {
    ++outstanding_[static_cast<std::size_t>(src)];
  }
  void finish_tracking(PeId src) {
    auto& count = outstanding_[static_cast<std::size_t>(src)];
    FCC_CHECK(count > 0);
    if (--count == 0) {
      auto& waiters = drain_waiters_[static_cast<std::size_t>(src)];
      for (auto h : waiters) {
        machine_.engine_of(src).schedule_resume_after(0, h);
      }
      waiters.clear();
    }
  }

  gpu::Machine& machine_;
  std::vector<int> outstanding_;
  std::vector<std::vector<std::coroutine_handle<>>> drain_waiters_;
  std::vector<std::int64_t> puts_issued_;  // per PE: writer is its own shard
  std::vector<DeferredShard> deferred_;
  std::vector<ReplayTag> replay_scratch_;  // drain_deferred's sort buffer
  int barrier_hook_ = -1;
};

}  // namespace fcc::shmem
