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
//   * The ready queue is time-bucketed: a 4-ary min-heap holds one entry
//     per *distinct* pending timestamp, and each timestamp owns a FIFO
//     bucket of payload words, found through a small open-addressing map
//     (plus a one-entry cache of the last bucket pushed, so a wave of
//     same-time pushes skips the lookup). No sequence number is stored,
//     yet the pop order is exactly (time, seq): seq is assigned in push
//     order, every push appends to the one bucket of its time, and buckets
//     drain in time order, each front to back — so the front of the
//     earliest bucket is always the pending event with the smallest
//     (time, seq). That holds for pushes into the bucket being drained and
//     for schedule_at_unchecked rewinds alike; a timestamp whose bucket has
//     emptied gets a fresh one, behind every event at that time that
//     already fired. WG waves finish at the same nanosecond, so the heap
//     sifts once per timestamp rather than once per event.
//   * A push onto an empty queue lands in a single-entry slot with no
//     bucket, map or heap work: the one in-flight event of a delay chain.
//     The next push migrates it into a bucket first.
//   * A bucket keeps its first payload inline (a single-event timestamp
//     takes no chunk) and the rest in fixed-size chunks. Buckets, chunks
//     and callback nodes are pooled in chunk-stable slabs with free lists,
//     so steady-state scheduling allocates nothing; run() returns the
//     bucket, chunk, map and heap storage when the queue drains.
//   * The overwhelming event kind is "resume this coroutine" (delay,
//     busy_wait, flag wakeups, PUT completions). `schedule_resume_*` packs
//     the bare handle into the tagged payload word — no event object, no
//     allocation, no dispatch indirection beyond the resume.
//   * Arbitrary callbacks live in pooled nodes. Callables up to the node's
//     small buffer are stored inline (every callback in this codebase
//     fits); larger ones fall back to one heap allocation, preserving the
//     generic API.
#pragma once

#include <coroutine>
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

namespace fcc::sim {

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine() {
    // Destroy pending callbacks without running them (coroutine handles are
    // non-owning here: frames are destroyed by their own final-suspend
    // machinery or leaked with the process, matching the old behavior).
    if (solo_ != kNoPayload) dispose(solo_);
    for (const HeapEntry& h : heap_) {
      Bucket& b = buckets_[h.bucket];
      while (b.count != 0) dispose(take_front(b));
    }
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

  /// Rewind scheduling: schedule_at without the no-past check. Only the
  /// sharded barrier machinery uses this — `run_until` advances `now_` to
  /// the window deadline even on an idle shard, so a cross-shard join or
  /// collective that resolves to an exact completion time inside the window
  /// must be injected "into the past" of the frontier. Firing such an entry
  /// rewinds `now_` to its time; the continuation may only touch its own
  /// shard's state and must delay by >= the lookahead before its next
  /// cross-shard effect (every fused-op driver tail does: stream_sync /
  /// kernel_launch delays dominate any fabric latency floor).
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
      push_entry_unchecked(t, static_cast<std::uintptr_t>(idx) << 1);
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

  /// Fast path for the dominant event kind: resume `h` at time `t`. The
  /// handle itself is the event payload — nothing is allocated or pooled.
  void schedule_resume_at(TimeNs t, std::coroutine_handle<> h) {
    push_entry(t, reinterpret_cast<std::uintptr_t>(h.address()) | 1u);
  }

  /// Rewind variant of schedule_resume_at; see schedule_at_unchecked.
  void schedule_resume_at_unchecked(TimeNs t, std::coroutine_handle<> h) {
    push_entry_unchecked(t, reinterpret_cast<std::uintptr_t>(h.address()) | 1u);
  }

  void schedule_resume_after(TimeNs dt, std::coroutine_handle<> h) {
    FCC_CHECK(dt >= 0);
    schedule_resume_at(now_ + dt, h);
  }

  /// Runs until the event queue drains, then returns the queue's pooled
  /// storage. Returns the number of events processed. If coroutine
  /// processes are still suspended on conditions afterwards
  /// (live_tasks() > 0) the simulation deadlocked.
  std::size_t run() {
    std::size_t processed = 0;
    for (;;) {
      // Single-pending fast cycle: one in-flight event ping-ponging through
      // the solo slot (a delay chain / busy-wait loop, the most common
      // shape). A solo event is by construction the only pending one.
      while (solo_ != kNoPayload) {
        fire_solo();
        ++processed;
      }
      if (heap_.empty()) break;
      fire_front();
      ++processed;
    }
    release_queue_storage();
    return processed;
  }

  /// Runs events with time <= `deadline`. Returns events processed.
  std::size_t run_until(TimeNs deadline) {
    std::size_t processed = 0;
    while (!idle() && next_time() <= deadline) {
      if (solo_ != kNoPayload) {
        fire_solo();
      } else {
        fire_front();
      }
      ++processed;
    }
    if (now_ < deadline) now_ = deadline;
    return processed;
  }

  bool idle() const { return solo_ == kNoPayload && heap_.empty(); }

  /// Sentinel returned by next_event_time() when no events are pending.
  static constexpr TimeNs kNoEvent = -1;

  /// Time of the earliest pending event, or kNoEvent when idle; used by the
  /// sharded scheduler to compute conservative window bounds.
  TimeNs next_event_time() const { return idle() ? kNoEvent : next_time(); }

  /// Events scheduled but not yet fired.
  std::size_t pending() const {
    std::size_t n = solo_ != kNoPayload ? 1 : 0;
    for (const HeapEntry& h : heap_) n += buckets_[h.bucket].count;
    return n;
  }

  /// Pooled callback nodes ever created (capacity watermark, not live
  /// count; resume events never take a node).
  std::size_t slab_nodes() const { return nodes_.size(); }

  /// Bytes of pooled queue storage (heap, map, buckets, chunks): a capacity
  /// watermark that only grows while events are pending and returns to
  /// zero when run() drains the queue.
  std::size_t queue_bytes() const {
    return heap_.capacity() * sizeof(HeapEntry) +
           map_.capacity() * sizeof(MapSlot) +
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
  /// Small-buffer size for inline callbacks. Sized for the largest lambda
  /// the library schedules (PUT delivery: this + ids + a std::function).
  static constexpr std::size_t kInlineBytes = 48;
  static constexpr unsigned kHeapArity = 4;
  static constexpr std::uint32_t kNil =
      std::numeric_limits<std::uint32_t>::max();
  /// Never a real payload: bit 0 set marks a resume, and no coroutine frame
  /// lives at the top of the address space.
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

  /// One heap entry per distinct pending timestamp. The payload word of
  /// every queued event is tagged: bit 0 set => the rest is a coroutine
  /// frame address to resume (frame alignment guarantees the bit is free);
  /// bit 0 clear => payload >> 1 is a callback node index.
  struct HeapEntry {
    TimeNs t;
    std::uint32_t bucket;
  };

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

  /// Open-addressing map entry: timestamp -> bucket (kNil: empty slot).
  struct MapSlot {
    TimeNs t;
    std::uint32_t bucket;
  };

  static bool is_resume(std::uintptr_t payload) { return (payload & 1u) != 0; }
  static std::uint32_t node_index(std::uintptr_t payload) {
    return static_cast<std::uint32_t>(payload >> 1);
  }

  void push_entry(TimeNs t, std::uintptr_t payload) {
    FCC_CHECK_MSG(t >= now_, "cannot schedule into the past: " << t << " < "
                                                               << now_);
    push_entry_unchecked(t, payload);
  }

  void push_entry_unchecked(TimeNs t, std::uintptr_t payload) {
    if (idle()) {
      solo_t_ = t;
      solo_ = payload;
      return;
    }
    if (solo_ != kNoPayload) {
      // The solo event was pushed before anything else now pending, so it
      // heads its bucket. Cleared only once enqueued: a throwing enqueue
      // leaves it where it was.
      enqueue(solo_t_, solo_);
      solo_ = kNoPayload;
    }
    enqueue(t, payload);
  }

  /// Appends `payload` to the bucket of `t`, opening one if none is pending.
  void enqueue(TimeNs t, std::uintptr_t payload) {
    if (t == last_t_) {
      append(buckets_[last_bucket_], payload);
      return;
    }
    // Grow (and reserve the heap) before probing, so that nothing after
    // the probe can throw or move the slot it found.
    if ((map_used_ + 1) * 2 > map_.size()) map_grow();
    if (heap_.size() == heap_.capacity()) {
      heap_.reserve(heap_.empty() ? 64 : 2 * heap_.size());
    }
    const std::size_t mask = map_.size() - 1;
    std::size_t i = map_home(t);
    for (; map_[i].bucket != kNil; i = (i + 1) & mask) {
      if (map_[i].t == t) {
        last_t_ = t;
        last_bucket_ = map_[i].bucket;
        append(buckets_[last_bucket_], payload);
        return;
      }
    }
    std::uint32_t b = free_buckets_;
    if (b != kNil) {
      free_buckets_ = buckets_[b].head;
    } else {
      b = buckets_.grow();
    }
    buckets_[b] = Bucket{payload, kNil, kNil, 1, 0, 0};
    map_[i] = MapSlot{t, b};
    ++map_used_;
    heap_.push_back(HeapEntry{t, b});
    sift_up(heap_.size() - 1);
    last_t_ = t;
    last_bucket_ = b;
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
  /// its last chunk for close_front() to free.
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

  /// Retires the emptied bucket at the heap root.
  void close_front() {
    const HeapEntry top = heap_.front();
    Bucket& b = buckets_[top.bucket];
    if (b.head != kNil) free_chunk(b.head);
    b.head = free_buckets_;
    free_buckets_ = top.bucket;
    map_erase(top.t);
    pop_root();
    if (last_bucket_ == top.bucket) last_t_ = kNoTime;
  }

  TimeNs next_time() const {
    return solo_ != kNoPayload ? solo_t_ : heap_.front().t;
  }

  void fire_solo() {
    const std::uintptr_t p = solo_;
    solo_ = kNoPayload;
    now_ = solo_t_;
    fire(p);
  }

  /// Fires the front of the earliest bucket. Pre: no solo event, not idle.
  void fire_front() {
    const TimeNs t = heap_.front().t;
    Bucket& b = buckets_[heap_.front().bucket];
    const std::uintptr_t p = take_front(b);
    if (b.count == 0) close_front();
    // A rewind entry (schedule_at_unchecked) legitimately moves now_
    // backwards from the window deadline run_until parked it at; run_until
    // restores the frontier after the loop.
    now_ = t;
    fire(p);
  }

  void fire(std::uintptr_t payload) {
    if (is_resume(payload)) {
      std::coroutine_handle<>::from_address(
          reinterpret_cast<void*>(payload & ~std::uintptr_t{1}))
          .resume();
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
    if (!is_resume(payload)) {
      Node& n = nodes_[node_index(payload)];
      n.dispose(n.buf);
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
    if (heap_.capacity() == 0 && map_.empty()) return;  // no bucket opened
    heap_ = std::vector<HeapEntry>();
    map_ = std::vector<MapSlot>();
    map_used_ = 0;
    buckets_.release();
    chunks_.release();
    free_buckets_ = kNil;
    free_chunks_ = kNil;
    last_t_ = kNoTime;
  }

  // --- timestamp -> bucket map: linear probing, load factor <= 1/2 -------

  std::size_t map_home(TimeNs t) const {
    // Fibonacci hashing: the product's top bits spread clustered and
    // strided timestamps alike.
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(t) * 0x9E3779B97F4A7C15ull) >> map_shift_);
  }

  /// Pre: `t` absent and a free slot exists.
  void map_insert(TimeNs t, std::uint32_t bucket) {
    const std::size_t mask = map_.size() - 1;
    std::size_t i = map_home(t);
    while (map_[i].bucket != kNil) i = (i + 1) & mask;
    map_[i] = MapSlot{t, bucket};
    ++map_used_;
  }

  /// Removes present key `t` by backward-shift deletion (no tombstones).
  void map_erase(TimeNs t) {
    const std::size_t mask = map_.size() - 1;
    std::size_t hole = map_home(t);
    while (map_[hole].t != t || map_[hole].bucket == kNil) {
      hole = (hole + 1) & mask;
    }
    for (std::size_t j = (hole + 1) & mask; map_[j].bucket != kNil;
         j = (j + 1) & mask) {
      // Move slot j into the hole unless its home lies cyclically in
      // (hole, j], where the probe from home would no longer reach it.
      const std::size_t home = map_home(map_[j].t);
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        map_[hole] = map_[j];
        hole = j;
      }
    }
    map_[hole].bucket = kNil;
    --map_used_;
  }

  void map_grow() {
    std::vector<MapSlot> old = std::move(map_);
    const std::size_t size = old.empty() ? 64 : 2 * old.size();
    map_.assign(size, MapSlot{0, kNil});
    map_shift_ = 64;
    for (std::size_t s = size; s > 1; s >>= 1) --map_shift_;
    map_used_ = 0;
    for (const MapSlot& s : old) {
      if (s.bucket != kNil) map_insert(s.t, s.bucket);
    }
  }

  // --- 4-ary min-heap of distinct timestamps -----------------------------

  void sift_up(std::size_t i) {
    const HeapEntry e = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kHeapArity;
      if (!(e.t < heap_[parent].t)) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  /// Removes the root with the bottom-up "hole" strategy (what libstdc++'s
  /// __adjust_heap does for std::priority_queue): walk the hole to a leaf
  /// choosing the min child at each level — no early-exit compare against
  /// the relocated tail — then drop the tail in and sift it up, which
  /// terminates almost immediately because the tail came from the bottom.
  void pop_root() {
    const std::size_t size = heap_.size() - 1;  // entries after the pop
    std::size_t hole = 0;
    std::size_t child = 1;
    while (child < size) {
      const std::size_t last =
          child + kHeapArity < size ? child + kHeapArity : size;
      std::size_t best = child;
      for (std::size_t c = child + 1; c < last; ++c) {
        // Branch-free select: the comparison is a data-dependent coin flip.
        best = heap_[c].t < heap_[best].t ? c : best;
      }
      heap_[hole] = heap_[best];
      hole = best;
      child = hole * kHeapArity + 1;
    }
    if (hole != size) {
      heap_[hole] = heap_[size];
      sift_up(hole);
    }
    heap_.pop_back();
  }

  // The single pending event when nothing else is queued (else kNoPayload).
  TimeNs solo_t_ = 0;
  std::uintptr_t solo_ = kNoPayload;
  std::vector<HeapEntry> heap_;  // one entry per non-empty bucket
  std::vector<MapSlot> map_;     // power-of-two size
  std::size_t map_used_ = 0;
  unsigned map_shift_ = 64;
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
