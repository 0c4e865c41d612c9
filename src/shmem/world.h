// GPU-initiated communication world (ROC_SHMEM analog).
//
// A PUT is charged, then posted. The issuing WG first pays the API/issue
// latency (issue_then() in a persistent-kernel WG's call chain; a driver
// coroutine awaits the same call form as `issue(src, dst, kind)`), then
// posts the PUT (`put(src, dst, bytes, on_deliver)`): the payload's channel
// occupancy is reserved at post time (DMA-queue semantics), and the
// optional delivery runs when the bytes land at the destination. A flag PUT
// (a sliceRdy store, a remote atomic add) delivers a compact
// sim::FlagUpdate; a functional-mode data PUT delivers a closure that does
// its memcpy. The delivery is built after the issue delay, by the plain
// code that posts it, so it never lives across a suspension.
//
// Ordering model: every route class the topology resolves — self (HBM
// copy), intra-node (fabric/switch hop chain), inter-node (NIC and/or
// torus rings) — is a FIFO channel: a PUT issued after another on the same
// channel also delivers after it, because hop reservations are claimed in
// issue order. A fence (fence_then) therefore costs only its instruction
// latency — matching the HDP flush + ordering semantics the paper relies
// on — and `quiet()` waits for all of this PE's outstanding deliveries.
//
// Delivery tracking. A PUT completes, on the source's side, at its
// delivery time: every PUT whose delivery time is known at post time raises
// the source's delivery watermark, and nothing is scheduled on the
// source's engine. A PUT with a delivery schedules exactly one engine event
// on the destination's engine (through the mailbox when that is another
// shard): a flag PUT's update as an 8-byte event word, with no closure and
// no callback node, or a data PUT's bare closure (functional mode only). A
// PUT with no delivery — most data PUTs of timing-only runs — schedules
// none. So in a timing-only run no PUT builds a std::function.
// `quiet(src)` waits until the watermark has passed, and `quiesced(src)`
// tells whether it has. On the deferred torus path (below) the delivery
// time is known only at the barrier replay, so such a PUT stays in the
// source's unreplayed count until the replay moves it to the watermark;
// `quiet` first waits for that count to reach zero.
//
// Sharded machines (gpu::Machine num_shards > 1) keep every piece of World
// state shard-local: deferred counts, delivery watermarks, drain waiters
// and per-PE put counters are only touched from the owning PE's home shard
// (or by the serial barrier replay). Inter-node PUTs follow one of two
// paths:
//
//   * eager (fully-connected / switched / multi-rail): the route's state is
//     source-node-local, so the reservation happens at issue time exactly
//     as in the serial engine; only the *delivery* crosses shards, as a
//     mailbox message (a flag update's word, or a closure) applied on the
//     destination's shard.
//   * deferred (torus): routes ride ring links owned by third-party nodes,
//     so reservations — each carrying its delivery as a flag update's word
//     or an index into the shard's closures — are queued per shard and
//     replayed at every window
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

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "gpu/machine.h"
#include "sim/co.h"
#include "sim/flag_update.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace fcc::shmem {

class World {
 public:
  /// Issue-cost classes for a PUT.
  enum class IssueKind {
    kRdma,       // post descriptor + doorbell from the kernel (scale-out)
    kStore,      // direct remote stores over the fabric (scale-up zero-copy)
  };

  explicit World(gpu::Machine& machine);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  gpu::Machine& machine() { return machine_; }
  int n_pes() const { return machine_.num_pes(); }

  /// The GPU-side issue cost of one PUT from `src` to `dst`, then post the
  /// PUT with put(): charges a nonzero issue latency to the source device
  /// and runs `next` on `c` after it. Returns false, scheduling nothing,
  /// for a zero latency: the caller goes on.
  bool issue_then(PeId src, PeId dst, IssueKind kind, sim::Call& c,
                  sim::Call::Fn next) {
    const TimeNs latency = issue_latency(src, dst, kind);
    if (latency == 0) return false;
    machine_.device(src).wait_then(latency, c, next);
    return true;
  }

  /// issue_then() for a coroutine.
  auto issue(PeId src, PeId dst, IssueKind kind) {
    return sim::suspend([=, this](sim::Call& c, sim::Call::Fn fn) {
      return issue_then(src, dst, kind, c, fn);
    });
  }

  /// Posts a PUT of `bytes` from `src` to `dst` at the source's now: its
  /// route is reserved and its delivery scheduled. `on_deliver` (may be
  /// empty) runs when the data is visible at `dst` — on `dst`'s home shard
  /// when the machine is sharded. Defined in world.cc; see the header
  /// comment for the eager/deferred split.
  void put(PeId src, PeId dst, Bytes bytes,
           std::function<void()> on_deliver = {});

  /// Posts a flag PUT: like put() above, but what lands is the compact
  /// update `on_deliver` (a remote flag set or atomic add), applied on
  /// `dst`'s home shard at the delivery time without building a closure.
  void put(PeId src, PeId dst, Bytes bytes, sim::FlagUpdate on_deliver);

  /// issue() then put() with no delivery callback, as one awaiter. Kept
  /// only for bench/perf's PUT microbenchmark; operators await issue() and
  /// call put() themselves.
  struct [[nodiscard]] IssuePut : sim::Call {
    World* w;
    PeId src;
    PeId dst;
    Bytes bytes;
    IssueKind kind;
    std::coroutine_handle<> h;
    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> handle) {
      h = handle;
      return w->issue_then(src, dst, kind, *this, [](sim::Call* c) {
        static_cast<IssuePut*>(c)->h.resume();
      });
    }
    void await_resume() { w->put(src, dst, bytes); }
  };
  IssuePut put_nbi(PeId src, PeId dst, Bytes bytes, IssueKind kind) {
    return IssuePut{{}, this, src, dst, bytes, kind, {}};
  }

  /// Orders prior PUTs from `src` before subsequent ones (per destination),
  /// then runs `next` on `c`. FIFO channels already guarantee the order;
  /// only the instruction cost, kFenceCostNs, is charged.
  void fence_then(PeId src, sim::Call& c, sim::Call::Fn next) {
    machine_.engine_of(src).call_after(kFenceCostNs, c, next);
  }

  /// Blocks until quiesced(src). While deferred PUTs await their replay,
  /// it waits on `src`'s drain list, scheduled only when that count hits
  /// zero, at the watermark if that is later (the loop re-checks in case a
  /// same-time event issued a new PUT between the wake and the resume).
  /// Works across shards: the count, watermark and list are touched only
  /// on `src`'s shard or by the serial barrier replay.
  sim::Co quiet(PeId src) {
    PeState& st = pe(src);
    while (!quiesced(src)) {
      if (st.unreplayed > 0) {
        co_await sim::suspend([&st](sim::Call& c, sim::Call::Fn fn) {
          c.fn = fn;
          st.drain_waiters.push_back(&c);
          return true;
        });
      } else {
        co_await sim::delay_until(machine_.engine_of(src), st.watermark);
      }
    }
  }

  std::int64_t puts_issued() const {
    std::int64_t total = 0;
    for (const PeState& st : pes_) total += st.puts_issued;
    return total;
  }
  /// PUTs issued without a delivery callback (a subset of puts_issued()).
  std::int64_t callback_free_puts() const {
    std::int64_t total = 0;
    for (const PeState& st : pes_) total += st.callback_free_puts;
    return total;
  }
  /// Whether every PUT issued by `src` has been delivered at its home
  /// engine's now: none awaits its replay, and the watermark has passed.
  bool quiesced(PeId src) const {
    const PeState& st = pe(src);
    return st.unreplayed == 0 && st.watermark <= machine_.engine_of(src).now();
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
    }
    return 0;
  }

  static constexpr TimeNs kFenceCostNs = 50;

 private:
  /// What a deferred PUT delivers.
  enum class Delivery : std::uint8_t {
    kNone,
    kFlag,     // payload is a sim::FlagUpdate word
    kClosure,  // payload indexes the shard's closures
  };

  /// An inter-node PUT whose route reservation waits for the next window
  /// barrier (torus: the route's links are not source-shard-owned).
  struct PendingPut {
    TimeNs t;  // issue-complete time on the source shard
    PeId src;
    PeId dst;
    Bytes bytes;
    std::uint64_t payload;
    Delivery delivery;
  };

  /// Per-shard deferred queue, cache-line padded: appended only by the
  /// owning shard's thread during a window, drained serially at barriers.
  struct alignas(64) DeferredShard {
    std::vector<PendingPut> puts;
    std::vector<std::function<void()>> closures;  // functional data only
  };

  /// put()'s body for both delivery forms (closure or flag update).
  template <typename OnDeliver>
  void post(PeId src, PeId dst, Bytes bytes, OnDeliver on_deliver);

  /// Sort key of one deferred PUT in the barrier replay.
  struct ReplayTag {
    TimeNs t;
    PeId src;
    int shard;
    std::size_t idx;
  };

  /// Barrier hook (deferred mode): replays all queued reservations in
  /// (issue time, src PE, per-PE seq) order and posts their deliveries.
  void drain_deferred();

  /// Wakes `src`'s quiet() waiters once its last deferred PUT is replayed.
  void finish_deferred(PeId src) {
    PeState& st = pe(src);
    FCC_CHECK(st.unreplayed > 0);
    if (--st.unreplayed == 0) {
      // Resume no earlier than the watermark: a waiter woken by a barrier
      // replay must not land before the window being replayed ends.
      sim::Engine& home = machine_.engine_of(src);
      const TimeNs at = std::max(home.now(), st.watermark);
      for (sim::Call* c : st.drain_waiters) home.schedule_call_at(at, c);
      st.drain_waiters.clear();
    }
  }

  /// Per-PE state: written only from the PE's home shard (or by the
  /// serial barrier replay). All-zero initial values keep a World's
  /// construction a plain zero fill.
  struct PeState {
    int unreplayed = 0;  // deferred PUTs awaiting their replay
    std::int64_t puts_issued = 0;
    std::int64_t callback_free_puts = 0;
    TimeNs watermark = 0;  // latest delivery time
    std::vector<sim::Call*> drain_waiters;
  };
  PeState& pe(PeId src) { return pes_[static_cast<std::size_t>(src)]; }
  const PeState& pe(PeId src) const {
    return pes_[static_cast<std::size_t>(src)];
  }

  gpu::Machine& machine_;
  std::vector<PeState> pes_;
  std::vector<DeferredShard> deferred_;
  std::vector<ReplayTag> replay_scratch_;  // drain_deferred's sort buffer
  int barrier_hook_ = -1;
};

}  // namespace fcc::shmem
