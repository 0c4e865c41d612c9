// Sharded parallel event engine with conservative-lookahead windows.
//
// Partitions a simulation across per-thread `Engine` shards. Each shard is
// the unchanged allocation-free serial engine running its own event queue;
// shards advance in lock-step windows bounded by a conservative lookahead:
//
//   window k processes events with t in [Tmin, Tmin + L)
//
// where Tmin is the earliest pending event across all shards and L is a
// lower bound on the latency of *any* interaction that crosses a shard
// boundary (gpu::Machine derives it from hw::Topology route latencies).
// Within a window shards touch only shard-owned state, so they may run on
// separate threads; everything that crosses shards is exchanged at the
// window barrier through two explicit queues:
//
//   * mailbox messages — `post(src, dst, t, fn)`: apply `fn` on shard `dst`
//     at time `t`; `fn` is a closure or a compact FlagUpdate (a remote flag
//     PUT's delivery), which travels as its 8-byte word. Collected per
//     source shard during the window (owner thread only, no locks) and
//     injected at the barrier in (time, src shard, per-shard sequence)
//     order, so the merged timeline is deterministic regardless of shard
//     count or thread interleaving.
//   * barrier hooks — serial callbacks run at every barrier before
//     injection. shmem::World uses one to reserve deferred inter-node
//     routes in (issue time, src shard, sequence) order: link/NIC horizons
//     are shared across shards, so reservations are the sequential
//     consistency point and run between windows, never during one.
//
// Safety argument: an event processed in window k fires at t >= Tmin, and
// every cross-shard effect it generates applies at >= t + L >= Tmin + L,
// i.e. strictly after the window. Messages therefore always target the
// future, and each shard's local event order equals the serial engine's
// order restricted to that shard (see docs/ARCHITECTURE.md, "Sharded
// engine" — determinism is pinned by tests/test_sim_sharded.cc golden
// traces at 1/2/4/8 shards).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "sim/engine.h"

namespace fcc::sim {

class ShardedEngine {
 public:
  struct RunStats {
    std::size_t events = 0;    // events fired across all shards
    std::size_t windows = 0;   // lookahead windows executed
    std::size_t messages = 0;  // mailbox messages injected at barriers
    std::size_t threads = 0;   // worker threads used

    // Host wall-time breakdown (ns). `barrier_wall_ns` is the serial
    // inter-window section (hooks + mailbox merge); `window_wall_ns` sums
    // every shard's in-window processing; `critical_wall_ns` sums each
    // window's slowest shard — so `barrier_wall_ns + critical_wall_ns` is
    // the run's wall-clock floor with one thread per shard.
    // bench_shard_scaling, bench_fig15_scaleout_dlrm and bench/perf use it
    // to report the attainable speedup independently of how many cores the
    // measuring host happens to have.
    std::uint64_t barrier_wall_ns = 0;
    std::uint64_t window_wall_ns = 0;
    std::uint64_t critical_wall_ns = 0;
  };

  explicit ShardedEngine(int num_shards);
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  Engine& shard(int s) { return *shards_.at(static_cast<std::size_t>(s)); }
  const Engine& shard(int s) const {
    return *shards_.at(static_cast<std::size_t>(s));
  }

  /// Mailbox: apply `fn` on shard `dst_shard` at time `t`. Legal from the
  /// owning thread of `src_shard` during a window, or from a barrier hook
  /// (which runs with all shards stopped). `t` must be >= the current
  /// window's end — conservative lookahead guarantees this for any effect
  /// routed through a cross-shard latency.
  void post(int src_shard, int dst_shard, TimeNs t, std::function<void()> fn);

  /// Mailbox for a flag update: applied on `dst_shard` at `t` through
  /// Engine::schedule_flag_at, in the slot post() would give a closure.
  void post(int src_shard, int dst_shard, TimeNs t, FlagUpdate u);

  /// Rewind mailbox: like post(), but injected with the destination
  /// engine's no-past check bypassed (Engine::schedule_at_unchecked). Used
  /// for effects that resolve to an *exact* time inside the already-passed
  /// window — a cross-shard join completing at the max of its members'
  /// local times — rather than to `issue + latency`. The destination fires
  /// the entry with now_ rewound to `t`; the callback's continuation must
  /// stay shard-local until it has delayed past the lookahead again (see
  /// Engine::schedule_at_unchecked).
  void post_rewind(int src_shard, int dst_shard, TimeNs t,
                   std::function<void()> fn);

  /// Registers a hook run serially at every window barrier (all shards
  /// stopped), before mailbox injection, in registration order. Hooks may
  /// post(). Returns a handle for remove_barrier_hook.
  int add_barrier_hook(std::function<void()> fn);
  void remove_barrier_hook(int handle);

  /// Runs the windowed protocol until every shard drains and no messages
  /// remain. `lookahead` must be positive; events never cross a window
  /// early, so any 0 < lookahead <= the true minimum cross-shard latency
  /// is safe (smaller just costs more barriers). `num_threads == 0` picks
  /// min(num_shards, hardware_concurrency); shards are striped across
  /// threads, and results are independent of the thread count.
  RunStats run(TimeNs lookahead, unsigned num_threads = 0);

  /// Coroutine processes started but not finished, summed over shards.
  int live_tasks() const;

  /// Earliest pending event across shards, or Engine::kNoEvent.
  TimeNs next_event_time();

 private:
  enum class Kind : std::uint8_t {
    kFlag,    // payload is a FlagUpdate word
    kCall,    // payload indexes the source outbox's closures
    kRewind,  // kCall, injected via schedule_at_unchecked (post_rewind)
  };

  struct Message {
    TimeNs t;
    std::int32_t src_shard;
    std::int32_t dst_shard;
    std::uint64_t seq;  // per-src-shard, assigned at post()
    std::uint64_t payload;
    Kind kind;
  };

  /// Per-shard mailbox outbox, cache-line padded: appended only by the
  /// shard's owning thread during a window (or the barrier thread between
  /// windows), drained only at barriers. Closures stay here, so the
  /// barrier sorts plain messages.
  struct alignas(64) Outbox {
    std::vector<Message> msgs;
    std::vector<std::function<void()>> closures;
    std::uint64_t next_seq = 0;
  };

  void post_closure(int src_shard, int dst_shard, TimeNs t, Kind kind,
                    std::function<void()> fn);

  /// Runs hooks, then injects all queued messages in (t, src_shard, seq)
  /// order. Returns the number injected.
  std::size_t drain_barrier();

  std::vector<std::unique_ptr<Engine>> shards_;
  std::vector<Outbox> outboxes_;
  std::vector<Message> merge_scratch_;
  std::vector<std::pair<int, std::function<void()>>> hooks_;
  int next_hook_ = 0;
};

}  // namespace fcc::sim
