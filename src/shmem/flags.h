// Symmetric flag arrays with awaitable readiness (sliceRdy analog).
//
// Flags live in symmetric memory; producers set them via remote PUTs (the
// shmem world delivers the write at the modeled arrival time), consumers
// `co_await wait_ge(...)`. Waiting is condition-based rather than busy-poll:
// a GPU WG spinning on a cached flag consumes negligible memory bandwidth,
// so the idealization costs nothing in timing and keeps event counts linear.
//
// Wakeups are *targeted*: each flag keeps its waiters sorted by threshold,
// and `set`/`add` resumes exactly the waiters whose `wait_ge` predicate the
// new value satisfies — in registration order, matching the resume order of
// the old broadcast-Condition protocol while eliminating its no-op re-check
// events (an arrival counter tick used to wake every waiter on the index).
// A satisfied waiter's coroutine is resumed directly (one pooled resume
// event); there is no re-check loop and no per-wait coroutine frame.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "sim/engine.h"

namespace fcc::shmem {

class FlagArray {
 public:
  /// Single-engine form: every PE's wakeups go through `engine` — a
  /// convenience for serial machines, equivalent to the per-PE form with
  /// every entry pointing at the one engine.
  FlagArray(sim::Engine& engine, int num_pes, std::size_t n)
      : engines_(static_cast<std::size_t>(num_pes), &engine),
        num_pes_(num_pes),
        n_(n),
        values_(static_cast<std::size_t>(num_pes) * n, 0),
        waiters_(static_cast<std::size_t>(num_pes) * n),
        order_seq_(static_cast<std::size_t>(num_pes) * n, 0) {}

  /// Sharded form: PE `p`'s flags wake on `per_pe_engines[p]` — its home
  /// shard. A flag's state (value + waiters) is only ever touched from that
  /// shard: local waits and stores run there, and remote increments arrive
  /// as mailbox messages applied on the owner (see shmem::World).
  FlagArray(std::vector<sim::Engine*> per_pe_engines, std::size_t n)
      : engines_(std::move(per_pe_engines)),
        num_pes_(static_cast<int>(engines_.size())),
        n_(n),
        values_(engines_.size() * n, 0),
        waiters_(engines_.size() * n),
        order_seq_(engines_.size() * n, 0) {
    for ([[maybe_unused]] sim::Engine* e : engines_) FCC_DCHECK(e != nullptr);
  }

  ~FlagArray() {
    for ([[maybe_unused]] const auto& ws : waiters_) {
      FCC_DCHECK(ws.empty());
    }
  }

  std::size_t size() const { return n_; }
  int num_pes() const { return num_pes_; }

  std::uint64_t read(PeId pe, std::size_t i) const {
    return values_[flat(pe, i)];
  }

  /// Local (or delivered-remote) store to the flag; wakes satisfied waiters.
  /// While waiters are armed the value must not decrease: a targeted wakeup
  /// commits the waiter at notify time and there is no re-check at resume
  /// (shmem flags are monotonic — readiness bits and arrival counters).
  void set(PeId pe, std::size_t i, std::uint64_t v) {
    const std::size_t f = flat(pe, i);
    FCC_DCHECK(waiters_[f].empty() || v >= values_[f]);
    values_[f] = v;
    wake(f);
  }

  /// Fetch-add used for arrival counters; wakes satisfied waiters; returns
  /// the new value.
  std::uint64_t add(PeId pe, std::size_t i, std::uint64_t v) {
    const std::size_t f = flat(pe, i);
    values_[f] += v;
    wake(f);
    return values_[f];
  }

  /// Awaitable: suspends until flag[pe][i] >= v (shmem_wait_until analog).
  /// Already-satisfied waits do not suspend and cost no events.
  auto wait_ge(PeId pe, std::size_t i, std::uint64_t v) {
    struct Awaiter {
      FlagArray& fa;
      std::size_t f;
      std::uint64_t threshold;
      bool await_ready() const noexcept { return fa.values_[f] >= threshold; }
      void await_suspend(std::coroutine_handle<> h) {
        fa.enqueue(f, threshold, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, flat(pe, i), v};
  }

  /// Waiters currently suspended on flag[pe][i] (tests / diagnostics).
  std::size_t num_waiters(PeId pe, std::size_t i) const {
    return waiters_[flat(pe, i)].size();
  }

  /// Waiters suspended anywhere in the array (leak checks under churn).
  std::size_t total_waiters() const {
    std::size_t n = 0;
    for (const auto& ws : waiters_) n += ws.size();
    return n;
  }

  /// One suspended wait_ge: flag[pe][index] is at `value`, the waiter needs
  /// `threshold`. Snapshot for deadlock diagnostics.
  struct PendingWait {
    PeId pe = 0;
    std::size_t index = 0;
    std::uint64_t value = 0;
    std::uint64_t threshold = 0;
  };

  /// Every currently-suspended waiter, in (flag, threshold) order — what a
  /// deadlocked operator is actually blocked on (FusedOp::deadlock_report).
  std::vector<PendingWait> pending_waits() const {
    std::vector<PendingWait> out;
    for (std::size_t f = 0; f < waiters_.size(); ++f) {
      for (const Waiter& w : waiters_[f]) {
        out.push_back({static_cast<PeId>(f / n_), f % n_, values_[f],
                       w.threshold});
      }
    }
    return out;
  }

  /// Returns the array to its freshly-constructed state: all values zero,
  /// per-flag wake-order sequences rewound. Serving workloads reuse one
  /// array across back-to-back operator runs instead of reallocating;
  /// resetting with a waiter still registered would strand its coroutine
  /// forever (its threshold refers to the previous run's counter), so that
  /// is checked loudly here rather than left to the destructor's DCHECK.
  void reset() {
    for ([[maybe_unused]] std::size_t f = 0; f < waiters_.size(); ++f) {
      FCC_CHECK_MSG(waiters_[f].empty(),
                    "FlagArray::reset with " << waiters_[f].size()
                                             << " waiter(s) registered on "
                                                "flag["
                                             << f / n_ << "][" << f % n_
                                             << "]");
    }
    std::fill(values_.begin(), values_.end(), 0);
    std::fill(order_seq_.begin(), order_seq_.end(), 0);
  }

 private:
  struct Waiter {
    std::uint64_t threshold;
    std::uint64_t order;  // registration sequence (wake-order tiebreak)
    std::coroutine_handle<> h;
  };

  std::size_t flat(PeId pe, std::size_t i) const {
    FCC_DCHECK(pe >= 0 && pe < num_pes_);
    FCC_DCHECK(i < n_);
    return static_cast<std::size_t>(pe) * n_ + i;
  }

  void enqueue(std::size_t f, std::uint64_t threshold,
               std::coroutine_handle<> h) {
    auto& ws = waiters_[f];
    // Per-flag registration sequence: `order` only ever tiebreaks waiters
    // on the *same* flag, and a flag is touched exclusively from its owning
    // PE's shard — a single array-wide counter would be a cross-shard data
    // race under the windowed worker team.
    const Waiter w{threshold, order_seq_[f]++, h};
    // Keep sorted by threshold; `order` is monotonic, so inserting after
    // equal thresholds keeps the sort stable in registration order.
    const auto pos = std::upper_bound(
        ws.begin(), ws.end(), threshold,
        [](std::uint64_t t, const Waiter& x) { return t < x.threshold; });
    ws.insert(pos, w);
  }

  /// Resumes every waiter whose threshold the flag's value now meets — the
  /// sorted prefix — in registration order.
  void wake(std::size_t f) {
    auto& ws = waiters_[f];
    if (ws.empty()) return;
    const std::uint64_t v = values_[f];
    std::size_t k = 0;
    while (k < ws.size() && ws[k].threshold <= v) ++k;
    if (k == 0) return;
    if (k > 1) {
      std::sort(ws.begin(), ws.begin() + static_cast<std::ptrdiff_t>(k),
                [](const Waiter& a, const Waiter& b) {
                  return a.order < b.order;
                });
    }
    sim::Engine& e = *engines_[f / n_];  // the flag's owning PE's engine
    for (std::size_t j = 0; j < k; ++j) {
      e.schedule_resume_after(0, ws[j].h);
    }
    ws.erase(ws.begin(), ws.begin() + static_cast<std::ptrdiff_t>(k));
  }

  std::vector<sim::Engine*> engines_;  // per PE: home-shard engine
  int num_pes_;
  std::size_t n_;
  std::vector<std::uint64_t> values_;      // [pe * n + i], contiguous
  std::vector<std::vector<Waiter>> waiters_;  // [pe * n + i]
  std::vector<std::uint64_t> order_seq_;      // per-flag Waiter::order source
};

}  // namespace fcc::shmem
