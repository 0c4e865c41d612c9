// Slice mapping for the fused embedding + All-to-All operator.
//
// One logical WG pools one output vector (table t, global sample b). A
// *slice* is the communication unit: `vectors_per_slice` consecutive samples
// of one table, all bound for the same destination PE (the PE that owns that
// slice of the global batch). The last WG to finish a slice ships it.
//
// Destination layout (what the paper calls "{local batch, numTables x
// embedding dim}"): on PE d, row = local sample, column block = global table
// id — so the All-to-All lands data pre-shuffled for the interaction op.
//
// Because samples are PE-major, the WGs bound for one destination form one
// contiguous block, and the communication-aware order is a permutation of
// whole blocks: it is kept as num_pes destinations (comm_aware_blocks, in
// the topology's node shift order) and expanded one position at a time
// (SliceIndex::block_wg), never as a per-WG vector.
//
// Slices are numbered destination-major: slice (dest, table, group) is
// (dest x tables_per_pe + table) x slices_per_dest_per_table + group, so PE
// d's slices are the contiguous range [d, d + 1) x slices_per_dest(), and a
// slice's destination is one division (SliceIndex::dest_of). The sliceRdy
// flags a destination holds are numbered per (source, table, group) instead,
// so a slice's flag is its offset in its destination's range, shifted by
// the source (SliceIndex::flag_of).
//
// The per-WG index arithmetic (SliceIndex) divides by the map's fixed
// sizes. It runs once per logical WG, so each divisor is a Divisor
// reciprocal computed once per operator: a multiply and a shift instead of
// a hardware division.
#pragma once

#include <climits>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace fcc::fused {

/// Exact division of a non-negative int by a fixed positive int, as one
/// 64x64 -> 128-bit multiply and a shift: with m = ceil(2^63 / d),
/// n / d == (m * n) >> 63 for every n in [0, 2^31) and d in [1, 2^31)
/// (Lemire, Kaser and Kurz, "Faster remainder by direct computation",
/// 2019, Theorem 1 with N = 31, F = 63: m * d - 2^63 < d <= 2^(F - N)).
class Divisor {
 public:
  Divisor() = default;
  explicit Divisor(int d) : d_(d) {
    FCC_CHECK_MSG(d >= 1, "Divisor must be >= 1, got " << d);
    m_ = ((std::uint64_t{1} << 63) - 1) / static_cast<std::uint64_t>(d) + 1;
  }

  int value() const { return d_; }

  /// n / d, for 0 <= n < 2^31.
  int div(int n) const {
    FCC_DCHECK(n >= 0);
    return static_cast<int>(
        (static_cast<unsigned __int128>(m_) * static_cast<std::uint32_t>(n)) >>
        63);
  }

 private:
  int d_ = 1;
  std::uint64_t m_ = std::uint64_t{1} << 63;
};

struct SliceMap {
  int num_pes = 1;
  int tables_per_pe = 1;
  int global_batch = 1;
  int dim = 1;
  int vectors_per_slice = 32;

  void validate() const {
    FCC_CHECK(num_pes >= 1);
    FCC_CHECK(tables_per_pe >= 1);
    FCC_CHECK(dim >= 1);
    FCC_CHECK_MSG(global_batch >= 1,
                  "SliceMap::global_batch must be >= 1, got " << global_batch);
    // Logical WGs, slices and lanes are ints (and SliceIndex's Divisor
    // arithmetic takes n < 2^31): the WG count must fit one.
    const std::int64_t wgs = std::int64_t{tables_per_pe} * global_batch;
    FCC_CHECK_MSG(wgs <= INT_MAX,
                  "SliceMap::tables_per_pe (got "
                      << tables_per_pe << ") x SliceMap::global_batch (got "
                      << global_batch << ") = " << wgs
                      << " logical WGs, more than INT_MAX (" << INT_MAX
                      << ")");
    FCC_CHECK(global_batch % num_pes == 0);
    FCC_CHECK(vectors_per_slice >= 1);
    FCC_CHECK_MSG(local_batch() % vectors_per_slice == 0,
                  "slice size must divide the per-PE batch: local_batch="
                      << local_batch() << " vps=" << vectors_per_slice);
  }

  int local_batch() const { return global_batch / num_pes; }

  /// ---- logical WG indexing (per source PE) ----
  /// Sample-major, matching the paper's Fig. 6a numbering: WG (0,0,0)
  /// onwards walks the batch first, tables within a sample. Under the
  /// oblivious schedule this computes ALL locally-consumed output before
  /// any remote output on PE 0 — the pathology Fig. 14 measures.
  int num_logical_wgs() const { return tables_per_pe * global_batch; }
  int wg_table(int lw) const { return lw % tables_per_pe; }
  int wg_sample(int lw) const { return lw / tables_per_pe; }
  int wg_of(int table, int sample) const {
    return sample * tables_per_pe + table;
  }

  /// Destination PE of global sample b.
  PeId dest_of_sample(int b) const { return b / local_batch(); }
  bool wg_is_remote(PeId self, int lw) const {
    return dest_of_sample(wg_sample(lw)) != self;
  }

  /// Logical WGs bound for one destination PE: PE d's block is the
  /// contiguous range [d * wgs_per_dest(), (d + 1) * wgs_per_dest()).
  int wgs_per_dest() const { return local_batch() * tables_per_pe; }

  /// Communication-aware destination order on PE `self`: the WG order runs
  /// whole destination blocks in this sequence (block_wg expands it), so it
  /// is stored as num_pes PEs, never as num_logical_wgs() WG ids. Inter-node
  /// blocks lead: the other nodes in `node_order` (hw::Topology::shift_order
  /// of self's node), each node's GPUs in ascending order. Then self's
  /// intra-node peers in (d - self - 1) mod gpus_per_node order, and self's
  /// own block last. A shift order sends every node to a different node at
  /// each step, so sources spread over destinations: with every source
  /// starting at the same destination, all of them would hit one
  /// destination's ingress links at once and then move to the next
  /// together. Inter-node blocks lead because a plain rotation gave the 2x4
  /// serve point a worse mean-latency ratio. On a ring shift order this is
  /// the (self + k) mod num_pes rotation, inter-node blocks first; on 2 PEs
  /// the expanded order is the stable remote-first partition of
  /// make_schedule.
  std::vector<PeId> comm_aware_blocks(PeId self,
                                      std::span<const NodeId> node_order,
                                      int gpus_per_node) const {
    FCC_CHECK_MSG(
        static_cast<int>(node_order.size() + 1) * gpus_per_node == num_pes,
        "comm_aware_blocks: " << node_order.size() + 1 << " nodes x "
                              << gpus_per_node << " GPUs != " << num_pes
                              << " PEs");
    std::vector<PeId> blocks;
    blocks.reserve(static_cast<std::size_t>(num_pes));
    for (const NodeId n : node_order) {
      for (int l = 0; l < gpus_per_node; ++l) {
        blocks.push_back(n * gpus_per_node + l);
      }
    }
    const PeId first = self - self % gpus_per_node;
    for (int k = 1; k < gpus_per_node; ++k) {
      blocks.push_back(first + (self - first + k) % gpus_per_node);
    }
    blocks.push_back(self);
    return blocks;
  }

  /// ---- slice indexing (per source PE) ----
  int slices_per_dest_per_table() const {
    return local_batch() / vectors_per_slice;
  }
  /// Slices bound for one destination PE, its range's length.
  int slices_per_dest() const {
    return tables_per_pe * slices_per_dest_per_table();
  }
  int num_slices() const { return num_pes * slices_per_dest(); }
  int wgs_per_slice() const { return vectors_per_slice; }

  int slice_table(int s) const {
    return (s / slices_per_dest_per_table()) % tables_per_pe;
  }
  PeId slice_dest(int s) const { return s / slices_per_dest(); }
  int slice_group(int s) const { return s % slices_per_dest_per_table(); }
  /// First global sample covered by slice s.
  int slice_sample_begin(int s) const {
    return slice_dest(s) * local_batch() + slice_group(s) * vectors_per_slice;
  }

  Bytes slice_bytes() const {
    return static_cast<Bytes>(vectors_per_slice) * dim * 4;
  }

  /// ---- destination buffer layout on PE d ----
  /// Output element (local row lb, global table gt, component c):
  std::size_t dest_offset(int lb, int global_table, int c) const {
    return (static_cast<std::size_t>(lb) * (tables_per_pe * num_pes) +
            static_cast<std::size_t>(global_table)) *
               static_cast<std::size_t>(dim) +
           static_cast<std::size_t>(c);
  }
  std::size_t dest_elems() const {
    return static_cast<std::size_t>(local_batch()) *
           static_cast<std::size_t>(tables_per_pe * num_pes) *
           static_cast<std::size_t>(dim);
  }
  int global_table(PeId src, int local_table) const {
    return src * tables_per_pe + local_table;
  }

  /// Number of slices on PE `self` whose destination is `self` / remote.
  int num_local_slices(PeId) const {
    return tables_per_pe * slices_per_dest_per_table();
  }
  int num_remote_slices(PeId self) const {
    return num_slices() - num_local_slices(self);
  }
};

/// SliceMap's per-WG index arithmetic, without a hardware division: built
/// once per operator from a validated map, with a Divisor per size it
/// divides by. Kept apart from SliceMap, whose fields are the user-facing
/// config.
class SliceIndex {
 public:
  SliceIndex() = default;
  explicit SliceIndex(const SliceMap& map)
      : num_slices_(map.num_slices()),
        slices_per_dest_per_table_(map.slices_per_dest_per_table()),
        tables_(map.tables_per_pe),
        local_batch_(map.local_batch()),
        vectors_per_slice_(map.vectors_per_slice),
        wgs_per_dest_(map.wgs_per_dest()),
        slices_per_dest_(map.slices_per_dest()) {}

  /// Where logical WG `lw`'s vector goes: its destination PE, the slice
  /// it contributes to, and its position (lane) within that slice.
  struct Placement {
    PeId dest;
    int slice;
    int lane;
  };
  Placement place(int lw) const {
    const int b = tables_.div(lw);
    const int t = lw - b * tables_.value();
    const PeId d = local_batch_.div(b);
    const int row = b - d * local_batch_.value();
    const int g = vectors_per_slice_.div(row);
    return {d, (d * tables_.value() + t) * slices_per_dest_per_table_ + g,
            row - g * vectors_per_slice_.value()};
  }

  /// SliceMap::num_slices().
  int num_slices() const { return num_slices_; }

  /// Destination PE of slice `slice` (SliceMap::slice_dest).
  PeId dest_of(int slice) const { return slices_per_dest_.div(slice); }

  /// sliceRdy flag, on `dest` (= dest_of(slice)), of source `src`'s slice
  /// `slice`: flag (src, table, group), whose offset in src's flags is the
  /// slice's offset in dest's slice range.
  std::size_t flag_of(PeId src, PeId dest, int slice) const {
    const int per_dest = slices_per_dest_.value();
    return static_cast<std::size_t>(src) *
               static_cast<std::size_t>(per_dest) +
           static_cast<std::size_t>(slice - dest * per_dest);
  }

  /// Logical WG at position `pos` of the order that runs the destination
  /// blocks `blocks` (num_pes entries) one after another, each in ascending
  /// WG order.
  int block_wg(const PeId* blocks, int pos) const {
    const int k = wgs_per_dest_.div(pos);
    return blocks[k] * wgs_per_dest_.value() +
           (pos - k * wgs_per_dest_.value());
  }

 private:
  int num_slices_ = 1;
  int slices_per_dest_per_table_ = 1;
  Divisor tables_;             // tables_per_pe
  Divisor local_batch_;        // samples per destination PE
  Divisor vectors_per_slice_;  // lanes per slice
  Divisor wgs_per_dest_;       // WGs per destination block
  Divisor slices_per_dest_;    // slices per destination PE
};

/// WG_Done table for every slice of every PE, flat: per slice its lane
/// bitmask, one word per 64 lanes; a slice is complete when every lane bit
/// is set. The last WG to mark its lane learns it is last; the paper
/// implements the reduction with cross-lane operations instead of an
/// inter-WG barrier. The claim check is exact and race-free because a PE's
/// rows are only touched from its home-shard engine (serial within a
/// shard).
class WgDoneTable {
 public:
  /// Sizes the table for `pes` x `slices` slices of `lanes` WGs, all clear.
  void reset(int pes, int slices, int lanes) {
    FCC_CHECK(pes >= 1 && slices >= 0 && lanes >= 1);
    lanes_ = lanes;
    stride_ = (static_cast<std::size_t>(lanes) + 63) / 64;
    last_full_ = lanes % 64 == 0 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << (lanes % 64)) - 1;
    slices_ = static_cast<std::size_t>(slices);
    words_.assign(static_cast<std::size_t>(pes) * slices_ * stride_, 0);
  }

  /// Marks `lane` of `pe`'s `slice` done; true iff it completed the slice
  /// (the caller is the last finishing WG and must issue the slice).
  bool mark(PeId pe, int slice, int lane) {
    FCC_DCHECK(lane >= 0 && lane < lanes_);
    std::uint64_t* s =
        &words_[(static_cast<std::size_t>(pe) * slices_ +
                 static_cast<std::size_t>(slice)) *
                stride_];
    std::uint64_t& word = s[static_cast<std::size_t>(lane) / 64];
    const std::uint64_t bit = std::uint64_t{1} << (lane % 64);
    FCC_CHECK_MSG((word & bit) == 0, "WG done-bit set twice: pe "
                                         << pe << " slice " << slice
                                         << " lane " << lane);
    word |= bit;
    for (std::size_t w = 0; w + 1 < stride_; ++w) {
      if (s[w] != ~std::uint64_t{0}) return false;
    }
    return s[stride_ - 1] == last_full_;
  }

 private:
  int lanes_ = 1;
  std::size_t stride_ = 1;       // mask words per slice
  std::uint64_t last_full_ = 1;  // the last mask word of a complete slice
  std::size_t slices_ = 0;       // per PE
  std::vector<std::uint64_t> words_;
};

}  // namespace fcc::fused
