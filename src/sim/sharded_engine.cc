#include "sim/sharded_engine.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>

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
  post_closure(src_shard, dst_shard, t, Kind::kCall, std::move(fn));
}

void ShardedEngine::post_rewind(int src_shard, int dst_shard, TimeNs t,
                                std::function<void()> fn) {
  post_closure(src_shard, dst_shard, t, Kind::kRewind, std::move(fn));
}

void ShardedEngine::post_closure(int src_shard, int dst_shard, TimeNs t,
                                 Kind kind, std::function<void()> fn) {
  FCC_DCHECK(src_shard >= 0 && src_shard < num_shards());
  FCC_DCHECK(dst_shard >= 0 && dst_shard < num_shards());
  Outbox& ob = outboxes_[static_cast<std::size_t>(src_shard)];
  ob.msgs.push_back(Message{t, src_shard, dst_shard, ob.next_seq++,
                            ob.closures.size(), kind});
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

int ShardedEngine::add_barrier_hook(std::function<void()> fn) {
  const int handle = next_hook_++;
  hooks_.emplace_back(handle, std::move(fn));
  return handle;
}

void ShardedEngine::remove_barrier_hook(int handle) {
  std::erase_if(hooks_, [handle](const auto& p) { return p.first == handle; });
}

std::size_t ShardedEngine::drain_barrier() {
  for (auto& [handle, fn] : hooks_) fn();
  merge_scratch_.clear();
  for (Outbox& ob : outboxes_) {
    merge_scratch_.insert(merge_scratch_.end(), ob.msgs.begin(),
                          ob.msgs.end());
    ob.msgs.clear();
  }
  // (time, src shard, per-shard seq): a total order — (src_shard, seq) pairs
  // are unique — so the injection sequence, and with it each destination
  // engine's tie-break order, is independent of how shards were threaded.
  std::sort(merge_scratch_.begin(), merge_scratch_.end(),
            [](const Message& a, const Message& b) {
              if (a.t != b.t) return a.t < b.t;
              if (a.src_shard != b.src_shard) return a.src_shard < b.src_shard;
              return a.seq < b.seq;
            });
  for (const Message& m : merge_scratch_) {
    Engine& dst = *shards_[static_cast<std::size_t>(m.dst_shard)];
    if (m.kind == Kind::kFlag) {
      dst.schedule_flag_at(m.t, FlagUpdate::from_word(m.payload));
      continue;
    }
    std::function<void()>& fn =
        outboxes_[static_cast<std::size_t>(m.src_shard)].closures[m.payload];
    if (m.kind == Kind::kRewind) {
      // Rewind messages target an exact time that may sit behind the
      // destination's window frontier (run_until parks now_ at the
      // deadline); the frontier itself never ran past the message's time,
      // because the sender's pending state bounded Tmin.
      dst.schedule_at_unchecked(m.t, std::move(fn));
    } else {
      dst.schedule_at(m.t, std::move(fn));
    }
  }
  for (Outbox& ob : outboxes_) ob.closures.clear();
  const std::size_t injected = merge_scratch_.size();
  merge_scratch_.clear();
  return injected;
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

namespace {

inline std::uint64_t wall_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Persistent worker team for one run(): workers park on a condvar between
/// windows and wake per generation. Mutex+condvar (not spinning) so the
/// protocol is TSan-clean and idle shards cost nothing.
struct WorkerTeam {
  std::mutex mu;
  std::condition_variable cv_work;
  std::condition_variable cv_done;
  std::uint64_t generation = 0;
  int remaining = 0;
  TimeNs deadline = 0;
  bool stop = false;
  std::size_t events = 0;
  std::vector<std::uint64_t> stripe_ns;  // per worker, this window's span
};

}  // namespace

ShardedEngine::RunStats ShardedEngine::run(TimeNs lookahead,
                                           unsigned num_threads) {
  FCC_CHECK_MSG(lookahead > 0,
                "sharded run needs a positive lookahead, got " << lookahead);
  const int num_sh = num_shards();
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  const unsigned team_size =
      std::min(num_threads, static_cast<unsigned>(num_sh));

  RunStats stats;
  stats.threads = team_size;

  // Serial fast path (single shard, or a one-thread request): identical
  // protocol, no worker team. Windows still apply so barrier hooks and the
  // mailbox see the same schedule as the threaded run.
  if (team_size <= 1) {
    for (;;) {
      const std::uint64_t b0 = wall_now_ns();
      const std::size_t injected = drain_barrier();
      stats.barrier_wall_ns += wall_now_ns() - b0;
      stats.messages += injected;
      const TimeNs tmin = next_event_time();
      if (tmin == Engine::kNoEvent) {
        if (injected == 0) break;
        continue;
      }
      const TimeNs bound = tmin + lookahead - 1;  // inclusive: [tmin, tmin+L)
      // Shards run back to back here, so each one's span can be timed
      // individually: the slowest becomes the window's critical-path cost.
      std::uint64_t worst = 0;
      for (auto& s : shards_) {
        const std::uint64_t w0 = wall_now_ns();
        stats.events += s->run_until(bound);
        const std::uint64_t dt = wall_now_ns() - w0;
        stats.window_wall_ns += dt;
        worst = std::max(worst, dt);
      }
      stats.critical_wall_ns += worst;
      ++stats.windows;
    }
    return stats;
  }

  WorkerTeam team;
  team.stripe_ns.assign(team_size, 0);
  std::vector<std::thread> workers;
  workers.reserve(team_size);
  for (unsigned w = 0; w < team_size; ++w) {
    workers.emplace_back([this, &team, w, team_size] {
      std::uint64_t seen = 0;
      for (;;) {
        TimeNs deadline;
        {
          std::unique_lock<std::mutex> lk(team.mu);
          team.cv_work.wait(
              lk, [&] { return team.stop || team.generation != seen; });
          if (team.stop) return;
          seen = team.generation;
          deadline = team.deadline;
        }
        // Shards striped across workers; each shard has exactly one owner
        // thread this window, and the barrier mutex orders windows.
        std::size_t fired = 0;
        const std::uint64_t w0 = wall_now_ns();
        for (int s = static_cast<int>(w); s < num_shards();
             s += static_cast<int>(team_size)) {
          fired += shards_[static_cast<std::size_t>(s)]->run_until(deadline);
        }
        const std::uint64_t dt = wall_now_ns() - w0;
        {
          std::lock_guard<std::mutex> lk(team.mu);
          team.events += fired;
          team.stripe_ns[w] = dt;
          if (--team.remaining == 0) team.cv_done.notify_one();
        }
      }
    });
  }

  for (;;) {
    const std::uint64_t b0 = wall_now_ns();
    const std::size_t injected = drain_barrier();
    stats.barrier_wall_ns += wall_now_ns() - b0;
    stats.messages += injected;
    const TimeNs tmin = next_event_time();
    if (tmin == Engine::kNoEvent) {
      if (injected == 0) break;
      continue;
    }
    {
      std::unique_lock<std::mutex> lk(team.mu);
      team.deadline = tmin + lookahead - 1;
      team.remaining = static_cast<int>(team_size);
      ++team.generation;
      team.cv_work.notify_all();
      team.cv_done.wait(lk, [&] { return team.remaining == 0; });
      std::uint64_t worst = 0;
      for (const std::uint64_t dt : team.stripe_ns) {
        stats.window_wall_ns += dt;
        worst = std::max(worst, dt);
      }
      stats.critical_wall_ns += worst;
    }
    ++stats.windows;
  }

  {
    std::lock_guard<std::mutex> lk(team.mu);
    team.stop = true;
    team.cv_work.notify_all();
  }
  for (auto& t : workers) t.join();
  stats.events += team.events;
  return stats;
}

}  // namespace fcc::sim
