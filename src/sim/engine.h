// Deterministic discrete-event engine.
//
// Events are ordered by (time, insertion sequence): two events at the same
// virtual time fire in the order they were scheduled, which makes every
// simulation bit-reproducible. The engine is deliberately single-threaded
// (CP.2: no shared mutable state between threads); sweep-level parallelism
// runs *whole engines* on separate threads instead (bench/sweep_runner.h).
//
// Hot-path design (host speed only — simulated timing is untouched, see
// tests/test_sim_determinism.cc):
//
//   * The ready queue is a timing wheel: 2^16 one-nanosecond slots over
//     [cursor, cursor + 2^16), the cursor being the latest time now() has
//     reached (it never decreases, nor passes a pending wheel time). Slot
//     t mod 2^16 holds the FIFO bucket of pending time t; a 1024-word
//     occupancy bitmap and a 16-word summary find the next one with two ctz.
//   * Pushes outside the window (at or beyond cursor + 2^16, or rewinds
//     behind it: 2-5% in the paper workloads) go to buckets in a binary
//     heap of (time, seq, bucket), found through a 1024-entry direct-mapped
//     hint table; a hint collision only opens a second bucket at that time.
//     A one-entry cache of the last bucket pushed skips both lookups.
//   * The pop order is exactly (time, seq), with no per-event seq: a push
//     appends only to the latest bucket opened at its time, and buckets
//     drain in (time, opening order), each front to back. On equal times a
//     heap bucket fires before a wheel bucket, and it was opened first:
//     while a wheel bucket at t is pending, t is in the window, so no heap
//     bucket at t can open. (A far push entered the heap before its time
//     came into the window; a rewind's time is below every wheel time.)
//   * A bucket keeps its first payload inline (a single-event timestamp
//     takes no chunk) and the rest in fixed-size chunks. Buckets, chunks
//     and callback nodes are pooled in chunk-stable slabs with free lists,
//     so steady-state scheduling allocates nothing. The wheel (~280 KB with
//     the hints) is allocated by the first push after a drain; run()
//     returns it and the pools when the queue drains, run_until() keeps
//     them, so sharded windows and warm launches allocate nothing.
//   * Every queued event is one tagged payload word, of three kinds. The
//     overwhelming kind is a call (`schedule_call_at`): the address of a
//     sim::Call that its scheduler owns, and firing runs its function on
//     it. Every step of a persistent-kernel WG, flag wakeups included, is
//     one (gpu::KernelRun): the call is the slot's record, and its
//     function is the WG's next step. A suspended coroutine is woken the
//     same way: its awaiter (sim::suspend, sim/task.h) embeds the call
//     that resumes it, so no event object is allocated.
//   * A flag update (sim/flag_update.h) — what a flag PUT delivers: set a
//     flag to 1, or add to an arrival counter — is the word too:
//     `schedule_flag_at` packs the target's id, the flag's index and the
//     operation, and firing resolves the target in a fixed process-wide
//     table. No closure is built and no node is taken.
//   * Arbitrary callbacks live in pooled 48-byte nodes. Callables up to the
//     node's 32-byte buffer are stored inline (a bare std::function, and so
//     every functional-mode data delivery and mailbox closure, fits);
//     larger ones, such as fault-plan events, fall back to one heap
//     allocation, preserving the generic API.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "sim/flag_update.h"

namespace fcc::sim {

/// An event payload its scheduler owns (Engine::schedule_call_at): firing
/// runs `fn(this)`. The engine neither copies nor frees it, and drops it
/// unrun if destroyed first; it must stay put until it fires.
struct Call {
  using Fn = void (*)(Call* self);
  Fn fn;
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine() {
    // Destroy pending callbacks without running them and drop pending flag
    // updates and calls (calls are non-owning here: a call embedded in a
    // suspended coroutine frame goes with that frame, or leaks with the
    // process).
    for_each_bucket([this](std::uint32_t bucket) {
      Bucket& b = buckets_[bucket];
      while (b.count != 0) dispose(take_front(b));
    });
  }

  TimeNs now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (>= now). Callables up to
  /// kInlineBytes are stored in a pooled event node; larger ones cost one
  /// heap allocation.
  template <typename F>
  void schedule_at(TimeNs t, F&& fn) {
    FCC_CHECK_MSG(t >= now_, "cannot schedule into the past: " << t << " < "
                                                               << now_);
    schedule_at_unchecked(t, std::forward<F>(fn));
  }

  /// Rewind scheduling: schedule_at without the no-past check. `run_until`
  /// advances `now_` to the window deadline even on an idle shard, so a
  /// sharded barrier call (ShardedEngine::post_at_barrier) that resolves a
  /// cross-shard join or collective to an exact completion time inside the
  /// window must schedule "into the past" of the frontier. Firing such an
  /// entry rewinds `now_` to its time; the continuation may only touch its
  /// own shard's state and must delay by >= the lookahead before its next
  /// cross-shard effect (every fused-op driver tail does: stream_sync /
  /// kernel_launch delays dominate any fabric latency floor). Library code
  /// rewinds only calls (schedule_call_at_unchecked), never a closure.
  template <typename F>
  void schedule_at_unchecked(TimeNs t, F&& fn) {
    // The node is fully constructed before its entry is queued, so a
    // throwing callable constructor (or allocation failure) leaves nothing
    // behind that fire() or ~Engine() could touch.
    const std::uint32_t idx = alloc_node();
    Node& n = nodes_[idx];
    using Fn = std::decay_t<F>;
    try {
      if constexpr (sizeof(Fn) <= kInlineBytes &&
                    alignof(Fn) <= alignof(std::max_align_t)) {
        ::new (static_cast<void*>(n.buf)) Fn(std::forward<F>(fn));
        n.run_and_dispose = [](void* buf) {
          Fn* fn_p = std::launder(reinterpret_cast<Fn*>(buf));
          (*fn_p)();
          fn_p->~Fn();
        };
        n.dispose = [](void* buf) {
          std::launder(reinterpret_cast<Fn*>(buf))->~Fn();
        };
      } else {
        Fn* heap_fn = new Fn(std::forward<F>(fn));
        std::memcpy(n.buf, &heap_fn, sizeof(heap_fn));
        n.run_and_dispose = [](void* buf) {
          Fn* fn_p;
          std::memcpy(&fn_p, buf, sizeof(fn_p));
          (*fn_p)();
          delete fn_p;
        };
        n.dispose = [](void* buf) {
          Fn* fn_p;
          std::memcpy(&fn_p, buf, sizeof(fn_p));
          delete fn_p;
        };
      }
    } catch (...) {
      free_nodes_.push_back(idx);
      throw;
    }
    try {
      push_entry_unchecked(t, static_cast<std::uintptr_t>(idx) << 2);
    } catch (...) {
      n.dispose(n.buf);
      free_nodes_.push_back(idx);
      throw;
    }
  }

  /// Schedules `fn` after a relative delay (>= 0).
  template <typename F>
  void schedule_after(TimeNs dt, F&& fn) {
    FCC_CHECK(dt >= 0);
    schedule_at(now_ + dt, std::forward<F>(fn));
  }

  /// Applies `u` at time `t`, in the same (time, push order) slot a
  /// callback would take. The update itself is the payload: nothing is
  /// allocated or pooled, and a pending update is dropped, untouched, if
  /// the engine is destroyed first.
  void schedule_flag_at(TimeNs t, FlagUpdate u) {
    push_entry(t, static_cast<std::uintptr_t>(u.word() << 2) | kFlag);
  }

  /// Runs `c->fn(c)` at time `t`, in the same (time, push order) slot a
  /// callback would take. Nothing is allocated: `c` itself is the payload.
  void schedule_call_at(TimeNs t, Call* c) {
    push_entry(t, reinterpret_cast<std::uintptr_t>(c) | kCall);
  }

  /// Runs `next` on `c` after `dt`: a plain wait's call form (a coroutine
  /// awaits sim::delay).
  void call_after(TimeNs dt, Call& c, Call::Fn next) {
    c.fn = next;
    schedule_call_at(now_ + dt, &c);
  }

  /// Rewind variant of schedule_call_at; see schedule_at_unchecked.
  void schedule_call_at_unchecked(TimeNs t, Call* c) {
    push_entry_unchecked(t, reinterpret_cast<std::uintptr_t>(c) | kCall);
  }

  /// Runs until the event queue drains, then returns the queue's pooled
  /// storage. Returns the number of events processed. If coroutine
  /// processes are still suspended on conditions afterwards
  /// (live_tasks() > 0) the simulation deadlocked.
  std::size_t run() {
    std::size_t processed = 0;
    for (Front f; find_front(f); ++processed) fire_front(f);
    release_queue_storage();
    return processed;
  }

  /// Runs events with time <= `deadline`, then parks now() at `deadline`
  /// (if later). Keeps the queue's storage. Returns events processed.
  std::size_t run_until(TimeNs deadline) {
    std::size_t processed = 0;
    for (Front f; find_front(f) && f.t <= deadline; ++processed) {
      fire_front(f);
    }
    if (now_ < deadline) now_ = deadline;
    // Every pending event is later than `deadline`: the window may move up.
    if (cursor_ < deadline) cursor_ = deadline;
    return processed;
  }

  bool idle() const { return open_slots_ == 0 && far_.empty(); }

  /// Sentinel returned by next_event_time() when no events are pending.
  static constexpr TimeNs kNoEvent = -1;

  /// Time of the earliest pending event, or kNoEvent when idle; used by the
  /// sharded scheduler to compute conservative window bounds.
  TimeNs next_event_time() const {
    Front f;
    return find_front(f) ? f.t : kNoEvent;
  }

  /// Events scheduled but not yet fired.
  std::size_t pending() const {
    std::size_t n = 0;
    for_each_bucket([this, &n](std::uint32_t b) { n += buckets_[b].count; });
    return n;
  }

  /// Pooled callback nodes ever created (capacity watermark, not live
  /// count; call and flag events never take a node).
  std::size_t slab_nodes() const { return nodes_.size(); }

  /// Bytes of pooled queue storage (wheel, heap, buckets, chunks): a
  /// capacity watermark that only grows while events are pending and
  /// returns to zero when run() drains the queue.
  std::size_t queue_bytes() const {
    return (wheel_ ? sizeof(Wheel) : 0) + far_.capacity() * sizeof(Far) +
           buckets_.size() * sizeof(Bucket) + chunks_.size() * sizeof(Chunk);
  }

  /// Number of coroutine processes started but not yet finished.
  int live_tasks() const { return live_tasks_; }

  /// Called by the Task promise machinery; not for direct use.
  void task_started() { ++live_tasks_; }
  void task_finished() {
    --live_tasks_;
    FCC_DCHECK(live_tasks_ >= 0);
  }

 private:
  /// Small-buffer size for inline callbacks: a bare std::function (a
  /// functional-mode data delivery or a mailbox closure), the largest
  /// callable the library schedules, so a node is 48 bytes.
  static constexpr std::size_t kInlineBytes = 32;
  static constexpr std::uint32_t kNil =
      std::numeric_limits<std::uint32_t>::max();
  /// Never a real payload: its tag marks a call, and no sim::Call lives at
  /// the top of the address space.
  static constexpr std::uintptr_t kNoPayload =
      std::numeric_limits<std::uintptr_t>::max();
  static constexpr TimeNs kNoTime = std::numeric_limits<TimeNs>::min();

  /// Pool storage whose elements never move: fixed-size blocks of
  /// 2^kShift elements, addressed by a 32-bit index. Elements are left
  /// uninitialized; callers recycle them through their own free lists.
  template <typename T, std::size_t kShift>
  class Slab {
   public:
    T& operator[](std::uint32_t i) {
      return blocks_[i >> kShift][i & (kBlock - 1)];
    }
    const T& operator[](std::uint32_t i) const {
      return blocks_[i >> kShift][i & (kBlock - 1)];
    }
    /// Appends one element (growing by a block when full); returns its index.
    std::uint32_t grow() {
      if (size_ >> kShift == blocks_.size()) {
        blocks_.push_back(std::make_unique_for_overwrite<T[]>(kBlock));
      }
      return static_cast<std::uint32_t>(size_++);
    }
    std::size_t size() const { return size_; }
    void release() {
      blocks_ = std::vector<std::unique_ptr<T[]>>();
      size_ = 0;
    }

   private:
    static constexpr std::size_t kBlock = std::size_t{1} << kShift;
    std::vector<std::unique_ptr<T[]>> blocks_;
    std::size_t size_ = 0;
  };

  /// Pooled storage for one callback event. `run_and_dispose` executes and
  /// destroys in a single indirect call; `dispose` destroys without running
  /// (engine teardown with events still pending).
  struct Node {
    void (*run_and_dispose)(void* buf);
    void (*dispose)(void* buf);
    alignas(std::max_align_t) unsigned char buf[kInlineBytes];
  };

  /// The payload word of every queued event is tagged in its low two bits:
  /// 11 => the rest is a sim::Call address (its alignment guarantees the
  /// bits are free); 10 => payload >> 2 is a FlagUpdate word; 00 =>
  /// payload >> 2 is a callback node index.
  static constexpr std::uintptr_t kFlag = 2u;
  static constexpr std::uintptr_t kCall = 3u;
  static_assert(alignof(Call) >= 4);
  static std::uintptr_t tag(std::uintptr_t payload) { return payload & 3u; }
  static_assert(FlagUpdate::kBits + 2 <= 8 * sizeof(std::uintptr_t));
  static std::uint32_t node_index(std::uintptr_t payload) {
    return static_cast<std::uint32_t>(payload >> 2);
  }

  /// Payloads 2.. of a bucket, in push order; 15 slots + link = 128 bytes.
  struct Chunk {
    static constexpr std::uint32_t kSlots = 15;
    std::uintptr_t slot[kSlots];
    std::uint32_t next;  // next chunk of the bucket, or of the free list
  };

  /// FIFO of the payloads pending at one timestamp.
  struct Bucket {
    std::uintptr_t first;  // oldest payload until popped, then kNoPayload
    std::uint32_t head;    // chunk popped next (kNil: none); free-list link
    std::uint32_t tail;    // chunk pushed to next
    std::uint32_t count;   // payloads queued
    std::uint16_t read;    // next slot to pop in `head`
    std::uint16_t write;   // next free slot in `tail`
  };

  /// A bucket outside the wheel's window, ordered by (t, seq); seq counts
  /// the far buckets opened, so two at one time keep their push order.
  struct Far {
    TimeNs t;
    std::uint64_t seq;
    std::uint32_t bucket;
  };
  struct FarLater {
    bool operator()(const Far& a, const Far& b) const {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };
  /// Hint: far time `t` (kNoTime: none) -> its latest open heap bucket.
  struct FarHint {
    TimeNs t;
    std::uint32_t bucket;
  };

  /// The calendar of [cursor_, cursor_ + kSlots): slot t mod kSlots holds
  /// the bucket of time t where its `bits` bit is set; `summary` has one
  /// bit per non-zero `bits` word. `hint` is direct-mapped by far time; a
  /// collision overwrites, so a later push may open one more heap bucket.
  static constexpr std::uint32_t kSlots = std::uint32_t{1} << 16;
  static constexpr std::uint32_t kWords = kSlots / 64;
  static constexpr std::uint32_t kSummaryWords = kWords / 64;
  static constexpr unsigned kHintBits = 10;
  struct Wheel {
    std::uint32_t bucket[kSlots];  // garbage where the bit is clear
    std::uint64_t bits[kWords];
    std::uint64_t summary[kSummaryWords];
    FarHint hint[std::size_t{1} << kHintBits];
  };
  static std::size_t hint_index(TimeNs t) {
    // Fibonacci hashing: the product's top bits spread strided times.
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(t) * 0x9E3779B97F4A7C15ull) >>
        (64 - kHintBits));
  }

  /// The earliest pending bucket: wheel slot `slot`, or the heap top (kNil).
  struct Front {
    TimeNs t;
    std::uint32_t slot;
  };

  void push_entry(TimeNs t, std::uintptr_t payload) {
    FCC_CHECK_MSG(t >= now_, "cannot schedule into the past: " << t << " < "
                                                               << now_);
    push_entry_unchecked(t, payload);
  }

  void push_entry_unchecked(TimeNs t, std::uintptr_t payload) {
    if (t == last_t_) {
      append(buckets_[last_bucket_], payload);
      return;
    }
    if (!wheel_) {
      wheel_ = std::make_unique_for_overwrite<Wheel>();
      std::memset(wheel_->bits, 0, sizeof(wheel_->bits));
      std::memset(wheel_->summary, 0, sizeof(wheel_->summary));
      std::ranges::fill(wheel_->hint, FarHint{kNoTime, kNil});
    }
    Wheel& w = *wheel_;
    std::uint32_t b;
    // Wrapping subtraction: a rewind behind the cursor reads as far ahead.
    if (static_cast<std::uint64_t>(t) - static_cast<std::uint64_t>(cursor_) >=
        kSlots) {
      FarHint& hint = w.hint[hint_index(t)];
      if (hint.t == t) {
        b = hint.bucket;
        append(buckets_[b], payload);
      } else {
        // Reserve first, so that nothing after open_bucket() can throw.
        if (far_.size() == far_.capacity()) {
          far_.reserve(far_.empty() ? 64 : 2 * far_.size());
        }
        b = open_bucket(payload);
        far_.push_back(Far{t, far_seq_++, b});
        std::push_heap(far_.begin(), far_.end(), FarLater{});
        hint = FarHint{t, b};
      }
    } else {
      const std::uint32_t slot = static_cast<std::uint32_t>(t) & (kSlots - 1);
      const std::uint64_t bit = std::uint64_t{1} << (slot & 63);
      if ((w.bits[slot >> 6] & bit) != 0) {
        b = w.bucket[slot];
        append(buckets_[b], payload);
      } else {
        b = open_bucket(payload);
        w.bucket[slot] = b;
        w.bits[slot >> 6] |= bit;
        w.summary[slot >> 12] |= std::uint64_t{1} << ((slot >> 6) & 63);
        ++open_slots_;
      }
    }
    last_t_ = t;
    last_bucket_ = b;
  }

  /// A fresh bucket holding `payload`, off the free list or the slab.
  std::uint32_t open_bucket(std::uintptr_t payload) {
    std::uint32_t b = free_buckets_;
    if (b != kNil) {
      free_buckets_ = buckets_[b].head;
    } else {
      b = buckets_.grow();
    }
    buckets_[b] = Bucket{payload, kNil, kNil, 1, 0, 0};
    return b;
  }

  void append(Bucket& b, std::uintptr_t payload) {
    if (b.head == kNil || b.write == Chunk::kSlots) {
      const std::uint32_t c = alloc_chunk();
      if (b.head == kNil) {
        b.head = c;
        b.read = 0;
      } else {
        chunks_[b.tail].next = c;
      }
      b.tail = c;
      b.write = 0;
    }
    chunks_[b.tail].slot[b.write++] = payload;
    ++b.count;
  }

  /// Pops the oldest payload of a non-empty bucket. An emptied bucket keeps
  /// its last chunk for retire() to free.
  std::uintptr_t take_front(Bucket& b) {
    --b.count;
    if (b.first != kNoPayload) {
      const std::uintptr_t p = b.first;
      b.first = kNoPayload;
      return p;
    }
    Chunk& c = chunks_[b.head];
    const std::uintptr_t p = c.slot[b.read++];
    if (b.read == Chunk::kSlots && b.count != 0) {
      const std::uint32_t next = c.next;
      free_chunk(b.head);
      b.head = next;
      b.read = 0;
    }
    return p;
  }

  /// Returns an emptied bucket to the free list.
  void retire(std::uint32_t bucket) {
    Bucket& b = buckets_[bucket];
    if (b.head != kNil) free_chunk(b.head);
    b.head = free_buckets_;
    free_buckets_ = bucket;
    if (last_bucket_ == bucket) last_t_ = kNoTime;
  }

  /// Index of the first set bit at or after bit `from` of `words[0..n)`,
  /// or 64 * n if there is none.
  static std::uint32_t first_set(const std::uint64_t* words, std::uint32_t n,
                                 std::uint32_t from) {
    std::uint32_t i = from >> 6;
    if (i >= n) return 64 * n;
    std::uint64_t m = words[i] & (~std::uint64_t{0} << (from & 63));
    while (m == 0) {
      if (++i == n) return 64 * n;
      m = words[i];
    }
    return (i << 6) | static_cast<std::uint32_t>(std::countr_zero(m));
  }

  /// Finds the earliest pending event; false when idle. The wheel is
  /// scanned from the cursor's slot onwards, wrapping once. On equal
  /// times the heap wins: its bucket was opened first (header comment).
  bool find_front(Front& f) const {
    bool found = false;
    if (open_slots_ != 0) {
      const Wheel& w = *wheel_;
      const std::uint32_t start =
          static_cast<std::uint32_t>(cursor_) & (kSlots - 1);
      std::uint32_t word = start >> 6;
      std::uint64_t m = w.bits[word] & (~std::uint64_t{0} << (start & 63));
      if (m == 0) {
        word = first_set(w.summary, kSummaryWords, word + 1);
        if (word == kWords) word = first_set(w.summary, kSummaryWords, 0);
        // Back at the start word, only bits below `start` are set.
        m = w.bits[word];
      }
      f.slot = (word << 6) | static_cast<std::uint32_t>(std::countr_zero(m));
      f.t = cursor_ + ((f.slot - start) & (kSlots - 1));
      found = true;
    }
    if (!far_.empty() && (!found || far_.front().t <= f.t)) {
      f = Front{far_.front().t, kNil};
      found = true;
    }
    return found;
  }

  /// Fires the front event of the bucket find_front() returned.
  void fire_front(const Front& f) {
    Wheel& w = *wheel_;
    const std::uint32_t bucket =
        f.slot == kNil ? far_.front().bucket : w.bucket[f.slot];
    Bucket& b = buckets_[bucket];
    const std::uintptr_t p = take_front(b);
    if (b.count == 0) {
      if (f.slot == kNil) {
        std::pop_heap(far_.begin(), far_.end(), FarLater{});
        far_.pop_back();
        FarHint& hint = w.hint[hint_index(f.t)];
        if (hint.bucket == bucket) hint.t = kNoTime;
      } else {
        const std::uint32_t word = f.slot >> 6;
        w.bits[word] &= ~(std::uint64_t{1} << (f.slot & 63));
        if (w.bits[word] == 0) {
          w.summary[word >> 6] &= ~(std::uint64_t{1} << (word & 63));
        }
        --open_slots_;
      }
      retire(bucket);
    }
    // A rewind entry (schedule_at_unchecked) legitimately moves now_
    // backwards from the window deadline run_until parked it at; run_until
    // restores the frontier after the loop. The cursor stays put.
    now_ = f.t;
    if (cursor_ < f.t) cursor_ = f.t;
    fire(p);
  }

  void fire(std::uintptr_t payload) {
    const std::uintptr_t kind = tag(payload);
    if (kind == kCall) {
      Call* c = reinterpret_cast<Call*>(payload - kCall);
      c->fn(c);
    } else if (kind == kFlag) {
      FlagUpdate::from_word(payload >> 2).apply();
    } else {
      // The callback runs in place (nodes have stable addresses, and
      // anything it schedules takes other nodes); recycle afterwards.
      const std::uint32_t idx = node_index(payload);
      Node& n = nodes_[idx];
      n.run_and_dispose(n.buf);
      free_nodes_.push_back(idx);
    }
  }

  void dispose(std::uintptr_t payload) {
    if (tag(payload) == 0u) {
      Node& n = nodes_[node_index(payload)];
      n.dispose(n.buf);
    }
  }

  /// Calls `fn(bucket)` for every pending bucket, heap and wheel.
  template <typename F>
  void for_each_bucket(F&& fn) const {
    for (const Far& f : far_) fn(f.bucket);
    if (open_slots_ == 0) return;
    const Wheel& w = *wheel_;
    for (std::uint32_t word = first_set(w.summary, kSummaryWords, 0);
         word != kWords; word = first_set(w.summary, kSummaryWords, word + 1)) {
      for (std::uint64_t m = w.bits[word]; m != 0; m &= m - 1) {
        fn(w.bucket[(word << 6) | std::countr_zero(m)]);
      }
    }
  }

  /// Takes a pooled node off the free list (or grows the slab). The caller
  /// owns it until its entry is queued via push_entry.
  std::uint32_t alloc_node() {
    if (!free_nodes_.empty()) {
      const std::uint32_t idx = free_nodes_.back();
      free_nodes_.pop_back();
      return idx;
    }
    return nodes_.grow();
  }

  std::uint32_t alloc_chunk() {
    if (free_chunks_ == kNil) return chunks_.grow();
    const std::uint32_t c = free_chunks_;
    free_chunks_ = chunks_[c].next;
    return c;
  }

  void free_chunk(std::uint32_t c) {
    chunks_[c].next = free_chunks_;
    free_chunks_ = c;
  }

  /// Returns the queue's pooled storage; the callback node slab is kept.
  /// Pre: idle.
  void release_queue_storage() {
    wheel_.reset();
    far_ = std::vector<Far>();
    buckets_.release();
    chunks_.release();
    free_buckets_ = kNil;
    free_chunks_ = kNil;
    last_t_ = kNoTime;
  }

  TimeNs cursor_ = 0;  // the latest now(); the wheel's window starts here
  std::unique_ptr<Wheel> wheel_;  // null until the first push after a drain
  std::uint32_t open_slots_ = 0;  // occupied wheel slots
  std::vector<Far> far_;          // binary min-heap under FarLater
  std::uint64_t far_seq_ = 0;
  Slab<Bucket, 8> buckets_;
  Slab<Chunk, 6> chunks_;
  std::uint32_t free_buckets_ = kNil;  // linked through Bucket::head
  std::uint32_t free_chunks_ = kNil;   // linked through Chunk::next
  TimeNs last_t_ = kNoTime;  // bucket of the last push, while it is open
  std::uint32_t last_bucket_ = kNil;
  Slab<Node, 9> nodes_;
  std::vector<std::uint32_t> free_nodes_;  // recycled node indices
  TimeNs now_ = 0;
  int live_tasks_ = 0;
};

}  // namespace fcc::sim
