// Bulk-synchronous collective library (RCCL analog) — the paper's baseline.
// Three collectives, the ones the fused operators replace: AllReduce
// (GEMV+AllReduce), All-to-All (embedding and GEMM+All-to-All) and the
// uneven All-to-All (MoE dispatch).
//
// Collectives run as device-wide "blit kernels": all transfers for a phase
// are issued when the phase starts, the phase ends when the slowest rank's
// data lands, and reduction math is charged at aggregate HBM bandwidth.
// Kernel-launch/synchronization overheads are charged by the caller's
// Stream (exactly where the real RCCL pays them); the collectives here model
// data movement.
//
// Every algorithm is a Schedule builder: it lists the collective's transfers
// as steps over time registers, and one interpreter (`run`) reserves them on
// the machine's links in ready-time order: a step is reserved once every
// step writing its input register has been, earliest input first, with the
// builder's list order only breaking ties (RCCL issues a step once its data
// has arrived). So the order in which a builder lists independent rings,
// such as the hierarchical algorithm's lanes, does not change their timing.
// A new algorithm is a new builder, with no timing code of its own.
//
// Algorithm choice: AllReduce defaults to kAuto, which runs the cheapest of
// the algorithms the span admits for the message size, priced by running
// each schedule on an idle copy of the machine (RCCL picks per size from
// modelled cost). A communicator spanning several nodes with several
// members per node also admits the hierarchical algorithm — intra-node
// reduce-scatter, inter-node ring per lane, intra-node all-gather — whose
// slow inter-node links carry 1/gpus_per_node of the flat algorithms'
// traffic. Every algorithm stays available as an explicit opt-in.
// All-to-All has one builder, RCCL's flat pairwise schedule (the
// paper's baseline) over a traffic matrix: all_to_all is all_to_all_v with
// every count equal.
//
// Functional mode: pass per-rank float spans; values are verified against
// references in tests. Timing-only mode: pass empty FloatBufs. The
// functional result is algorithm-independent; schedules carry timing only.
// Argument errors throw std::logic_error from the call itself.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "gpu/machine.h"
#include "sim/co.h"

namespace fcc::ccl {

enum class AllReduceAlgo {
  kAuto,            // the cheapest of the others (see select_allreduce)
  kTwoPhaseDirect,  // reduce-scatter + all-gather, direct peer writes [32]
  kRing,            // 2(N-1)-step ring
  kHierarchical,    // intra-node RS -> inter-node ring per lane -> intra AG
};

/// A collective's timing as data, built per algorithm (communicator.cc).
struct Schedule;

/// Per-rank float buffers; empty vector means timing-only.
struct FloatBufs {
  std::vector<std::span<float>> per_rank;

  bool functional() const { return !per_rank.empty(); }
  std::span<float> rank(int r) { return per_rank.at(static_cast<std::size_t>(r)); }
};

class Communicator {
 public:
  Communicator(gpu::Machine& machine, std::vector<PeId> members);

  int size() const { return static_cast<int>(members_.size()); }
  PeId pe(int rank) const { return members_.at(static_cast<std::size_t>(rank)); }
  gpu::Machine& machine() { return machine_; }

  /// In-place sum-AllReduce over `n_elems` fp32 per rank. The default
  /// kAuto runs the algorithm select_allreduce(n_elems) picks.
  sim::Co all_reduce(std::int64_t n_elems, FloatBufs bufs,
                     AllReduceAlgo algo = AllReduceAlgo::kAuto);

  /// Algorithm kAuto resolves to for an `n_elems` AllReduce: the cheapest
  /// of two-phase direct, ring and, on an eligible span, hierarchical (ties
  /// in that order). Each is priced by running its schedule on one idle
  /// serial machine built from this machine's config, over these members,
  /// with the live fabric's unhealthy sites copied onto it. Throws
  /// PartitionedFabricError on a span a dead component partitions (direct
  /// writes between every pair of members). Answers are cached per
  /// (n_elems, fault epoch).
  AllReduceAlgo select_allreduce(std::int64_t n_elems);

  /// All-to-All: each rank sends `chunk_elems` fp32 to every rank (including
  /// its own local chunk copy); all_to_all_v with a uniform matrix.
  /// send/recv layout: rank-major chunks — send[r] holds N chunks ordered
  /// by destination, recv[r] by source.
  sim::Co all_to_all(std::int64_t chunk_elems, FloatBufs send, FloatBufs recv);

  /// Variable All-to-All (MoE dispatch with uneven routing): rank s sends
  /// counts[s * n + d] fp32 elements to rank d — the traffic matrix is
  /// data-dependent and need not be symmetric. The transfers run in
  /// balanced pairwise rounds: round r pairs every rank s with rank
  /// (s + r) % n.
  ///
  /// Variable-chunk layout (all offsets in elements, no alignment padding):
  ///  * send side, destination-major: rank s's buffer holds its segments in
  ///    destination order, segment d at offset sum(counts[s*n + d'<d]) with
  ///    counts[s*n + d] elements.
  ///  * recv side, source-major: rank d's buffer receives segment s at
  ///    offset sum(counts[s'<s, d]); buffers may be exactly the sum of
  ///    incoming counts (they are only checked to cover offset + count).
  ///
  /// Empty segments (count == 0) are legal anywhere, including a whole row
  /// or column of the matrix: they occupy zero elements on both sides, move
  /// no bytes, and add nothing to the modeled time — but every call still
  /// pays kSwOverheadNs once. The s == d diagonal is charged as a local HBM
  /// copy, not fabric traffic.
  sim::Co all_to_all_v(const std::vector<std::int64_t>& counts,
                       FloatBufs send, FloatBufs recv);

  /// What an `n_elems` AllReduce over every PE costs on an idle machine
  /// built from `config`, per entry of `algos`: the last_duration() it
  /// would record, or nullopt for kHierarchical on an ineligible span.
  /// kAuto's price is the least of the others'. Every call builds one
  /// scratch serial machine and runs each algorithm's schedule through the
  /// interpreter on it, with no engine event; nothing is kept.
  static std::vector<std::optional<TimeNs>> price_all_reduce(
      const gpu::Machine::Config& config, std::int64_t n_elems,
      std::span<const AllReduceAlgo> algos);

  /// True when the span's shape admits the hierarchical algorithm at all
  /// (several nodes, uniform, several members each) — health aside. Forcing
  /// kHierarchical on an ineligible span is an error.
  bool hierarchy_eligible() const { return eligible_; }

  /// Wall-to-wall time of the last completed collective (simulated ns).
  TimeNs last_duration() const { return last_duration_; }

  /// Software latency floor of one library collective (protocol setup,
  /// proxy/grid coordination) — RCCL-class collectives pay tens of
  /// microseconds even for tiny messages; charged once per collective.
  static constexpr TimeNs kSwOverheadNs = 10000;

 private:
  /// Time to reduce `bytes` through HBM at device-aggregate bandwidth.
  TimeNs reduce_cost(Bytes bytes) const;

  class SweepAwaiter;
  using Builder = Schedule (Communicator::*)(std::int64_t) const;

  /// The collectives' coroutines; the public entry points validate their
  /// arguments, then return one of these frames. The All-to-All moves
  /// `counts` (all_to_all_v's traffic matrix; uniform for all_to_all).
  sim::Co all_reduce_co(std::int64_t n_elems, FloatBufs bufs,
                        AllReduceAlgo algo);
  sim::Co all_to_all_co(std::vector<std::int64_t> counts, FloatBufs send,
                        FloatBufs recv);

  /// The schedule builder of a resolved (non-kAuto) AllReduce algorithm.
  static Builder all_reduce_builder(AllReduceAlgo algo);

  /// Every algorithm's last_duration() for an `n_elems` AllReduce, indexed
  /// by AllReduceAlgo, on this communicator's machine, which must be serial
  /// and idle: nullopt for kHierarchical on an ineligible span, and kAuto
  /// the least of the others.
  using Prices = std::array<std::optional<TimeNs>, 4>;
  Prices prices(std::int64_t n_elems);

  /// Schedule builders, one per algorithm.
  Schedule direct_schedule(std::int64_t n_elems) const;
  Schedule ring_schedule(std::int64_t n_elems) const;
  Schedule hierarchical_schedule(std::int64_t n_elems) const;
  Schedule a2av_schedule(const std::vector<std::int64_t>& counts) const;

  /// `build`'s schedule for `size`, rebuilt unless it was the last built
  /// (callers mostly repeat one collective; a build costs host time).
  std::shared_ptr<const Schedule> memo(Builder build, std::int64_t size);

  /// The interpreter: reserves `s`'s transfers from t0 in ready-time order
  /// (ties in builder order) and returns the collective's end. The only
  /// link-reserving code in the library.
  TimeNs run(const Schedule& s, TimeNs t0);

  gpu::Machine& machine_;
  std::vector<PeId> members_;
  /// Member rank indices grouped by node, in member order; only nodes with
  /// members (membership is immutable).
  std::vector<std::vector<int>> by_node_;
  bool eligible_ = false;
  TimeNs last_duration_ = 0;
  /// select_allreduce's answers per n_elems, at fault epoch auto_epoch_.
  std::map<std::int64_t, AllReduceAlgo> auto_algo_;
  std::uint64_t auto_epoch_ = 0;
  Builder memo_build_ = nullptr;
  std::int64_t memo_size_ = -1;
  std::shared_ptr<const Schedule> memo_;
};

}  // namespace fcc::ccl
