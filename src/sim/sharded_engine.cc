#include "sim/sharded_engine.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <thread>
#include <utility>

#include "parallel/thread_pool.h"

namespace fcc::sim {

ShardedEngine::ShardedEngine(int num_shards) {
  FCC_CHECK_MSG(num_shards >= 1,
                "ShardedEngine needs >= 1 shard, got " << num_shards);
  shards_.reserve(static_cast<std::size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Engine>());
  }
  outboxes_ = std::vector<Outbox>(static_cast<std::size_t>(num_shards));
}

void ShardedEngine::post(int src_shard, int dst_shard, TimeNs t,
                         std::function<void()> fn) {
  FCC_DCHECK(src_shard >= 0 && src_shard < num_shards());
  FCC_DCHECK(dst_shard >= 0 && dst_shard < num_shards());
  Outbox& ob = outboxes_[static_cast<std::size_t>(src_shard)];
  ob.msgs.push_back(Message{t, src_shard, dst_shard, ob.next_seq++,
                            ob.closures.size(), Kind::kCall});
  ob.closures.push_back(std::move(fn));
}

void ShardedEngine::post(int src_shard, int dst_shard, TimeNs t,
                         FlagUpdate u) {
  FCC_DCHECK(src_shard >= 0 && src_shard < num_shards());
  FCC_DCHECK(dst_shard >= 0 && dst_shard < num_shards());
  Outbox& ob = outboxes_[static_cast<std::size_t>(src_shard)];
  ob.msgs.push_back(Message{t, src_shard, dst_shard, ob.next_seq++,
                            u.word(), Kind::kFlag});
}

void ShardedEngine::post_at_barrier(int src_shard, TimeNs t,
                                    std::function<void()> fn) {
  FCC_DCHECK(src_shard >= 0 && src_shard < num_shards());
  Outbox& ob = outboxes_[static_cast<std::size_t>(src_shard)];
  ob.calls.push_back(BarrierCall{t, src_shard, ob.next_seq++, std::move(fn)});
}

int ShardedEngine::add_barrier_hook(std::function<void()> fn) {
  const int handle = next_hook_++;
  hooks_.emplace_back(handle, std::move(fn));
  return handle;
}

void ShardedEngine::remove_barrier_hook(int handle) {
  std::erase_if(hooks_, [handle](const auto& p) { return p.first == handle; });
}

namespace {

inline std::uint64_t wall_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// (time, src shard, per-shard seq): a total order — (src_shard, seq) pairs
// are unique — so the order calls run and messages are injected in, and
// with it each destination engine's tie-break order, is independent of how
// shards were threaded.
constexpr auto kBarrierOrder = [](const auto& a, const auto& b) {
  if (a.t != b.t) return a.t < b.t;
  if (a.src_shard != b.src_shard) return a.src_shard < b.src_shard;
  return a.seq < b.seq;
};

}  // namespace

bool ShardedEngine::drain_barrier(RunStats& stats) {
  const std::uint64_t b0 = wall_now_ns();
  for (auto& [handle, fn] : hooks_) fn();
  std::vector<BarrierCall> calls;
  for (Outbox& ob : outboxes_) {
    std::move(ob.calls.begin(), ob.calls.end(), std::back_inserter(calls));
    ob.calls.clear();
  }
  std::sort(calls.begin(), calls.end(), kBarrierOrder);
  for (BarrierCall& c : calls) c.fn();

  merge_scratch_.clear();
  for (Outbox& ob : outboxes_) {
    merge_scratch_.insert(merge_scratch_.end(), ob.msgs.begin(),
                          ob.msgs.end());
    ob.msgs.clear();
  }
  std::sort(merge_scratch_.begin(), merge_scratch_.end(), kBarrierOrder);
  for (const Message& m : merge_scratch_) {
    Engine& dst = *shards_[static_cast<std::size_t>(m.dst_shard)];
    if (m.kind == Kind::kFlag) {
      dst.schedule_flag_at(m.t, FlagUpdate::from_word(m.payload));
    } else {
      dst.schedule_at(
          m.t, std::move(outboxes_[static_cast<std::size_t>(m.src_shard)]
                             .closures[m.payload]));
    }
  }
  for (Outbox& ob : outboxes_) ob.closures.clear();
  const std::size_t injected = merge_scratch_.size();
  merge_scratch_.clear();
  stats.messages += injected;
  stats.barrier_wall_ns += wall_now_ns() - b0;
  return !calls.empty() || injected != 0;
}

int ShardedEngine::live_tasks() const {
  int n = 0;
  for (const auto& s : shards_) n += s->live_tasks();
  return n;
}

TimeNs ShardedEngine::next_event_time() {
  TimeNs tmin = Engine::kNoEvent;
  for (const auto& s : shards_) {
    const TimeNs t = s->next_event_time();
    if (t != Engine::kNoEvent && (tmin == Engine::kNoEvent || t < tmin)) {
      tmin = t;
    }
  }
  return tmin;
}

ShardedEngine::RunStats ShardedEngine::run(TimeNs lookahead,
                                           unsigned num_threads) {
  FCC_CHECK_MSG(lookahead > 0,
                "sharded run needs a positive lookahead, got " << lookahead);
  const int num_sh = num_shards();
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  RunStats stats;
  stats.threads = std::min(num_threads, static_cast<unsigned>(num_sh));
  // The calling thread works too, so one thread starts no worker.
  par::ThreadPool pool(stats.threads - 1);

  // One window's result per shard, written only by the thread that ran it
  // and read after the batch joins.
  struct alignas(64) Slot {
    std::size_t fired = 0;
    std::uint64_t span_ns = 0;
  };
  std::vector<Slot> slots(static_cast<std::size_t>(num_sh));
  TimeNs bound = 0;
  const std::function<void(std::int64_t)> window = [&](std::int64_t s) {
    const auto i = static_cast<std::size_t>(s);
    const std::uint64_t w0 = wall_now_ns();
    slots[i].fired = shards_[i]->run_until(bound);
    slots[i].span_ns = wall_now_ns() - w0;
  };

  for (;;) {
    const bool drained = drain_barrier(stats);
    const TimeNs tmin = next_event_time();
    if (tmin == Engine::kNoEvent) {
      if (!drained) break;
      continue;
    }
    bound = tmin + lookahead - 1;  // inclusive: [tmin, tmin+L)
    pool.run_batch(0, num_sh, window);
    std::uint64_t worst = 0;
    for (const Slot& slot : slots) {
      stats.events += slot.fired;
      stats.window_wall_ns += slot.span_ns;
      worst = std::max(worst, slot.span_ns);
    }
    stats.critical_wall_ns += worst;
    ++stats.windows;
  }
  return stats;
}

}  // namespace fcc::sim
