// Streaming statistics accumulators for experiment reporting.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.h"

namespace fcc {

/// Streaming percentile sketch over non-negative integer samples
/// (latencies in ns). HdrHistogram-style log-linear bins: each power-of-two
/// octave is split into 2^kSubBits linear sub-buckets, so any reported
/// quantile is within a 2^-kSubBits (~3%) relative error of the exact
/// sample while add() stays O(1), memory stays O(log range), and a
/// million-request serving run never stores per-sample state.
/// Deterministic by construction (pure integer bin math, no sampling), so
/// sketches from identical runs compare equal (operator==); merge() folds
/// another sketch in for cross-class aggregation.
class PercentileSketch {
 public:
  static constexpr int kSubBits = 5;  // 32 sub-buckets per octave

  void add(std::int64_t v) {
    FCC_DCHECK(v >= 0);
    const std::size_t b = bucket_of(static_cast<std::uint64_t>(v));
    if (b >= bins_.size()) bins_.resize(b + 1, 0);
    ++bins_[b];
    ++count_;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }

  std::int64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  std::int64_t min() const { return count_ ? min_ : 0; }
  std::int64_t max() const { return count_ ? max_ : 0; }

  /// Value at percentile p (nearest-rank over the bins; each bin reports
  /// its upper edge, clamped to the true observed min/max so p=0 / p=100
  /// are exact). Requires a non-empty sketch.
  std::int64_t percentile(double p) const {
    FCC_CHECK(!empty());
    FCC_CHECK(p >= 0.0 && p <= 100.0);
    const auto rank = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(
               std::ceil(p / 100.0 * static_cast<double>(count_))));
    std::int64_t seen = 0;
    for (std::size_t b = 0; b < bins_.size(); ++b) {
      seen += bins_[b];
      if (seen >= rank) {
        return std::clamp(bucket_upper(b), min_, max_);
      }
    }
    return max_;
  }

  void merge(const PercentileSketch& o) {
    if (o.empty()) return;
    if (o.bins_.size() > bins_.size()) bins_.resize(o.bins_.size(), 0);
    for (std::size_t b = 0; b < o.bins_.size(); ++b) bins_[b] += o.bins_[b];
    count_ += o.count_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
  }

  /// Bit-identical state comparison (determinism regressions).
  bool operator==(const PercentileSketch&) const = default;

 private:
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;

  /// Values below 2*kSub map exactly; above, octave `msb` keeps the top
  /// kSubBits+1 significant bits (indices stay contiguous across the
  /// octave boundary: v = 2*kSub lands exactly at bucket 2*kSub).
  static std::size_t bucket_of(std::uint64_t v) {
    if (v < 2 * kSub) return static_cast<std::size_t>(v);
    const int msb = 63 - std::countl_zero(v);
    const int shift = msb - kSubBits;
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(shift + 1) << kSubBits) +
        ((v >> shift) - kSub));
  }

  /// Largest value mapping to bucket `b` (the bin's upper edge).
  static std::int64_t bucket_upper(std::size_t b) {
    if (b < 2 * kSub) return static_cast<std::int64_t>(b);
    const int shift = static_cast<int>(b >> kSubBits) - 1;
    const std::uint64_t base = (kSub + (b & (kSub - 1))) << shift;
    return static_cast<std::int64_t>(base + ((std::uint64_t{1} << shift) - 1));
  }

  std::vector<std::int64_t> bins_;
  std::int64_t count_ = 0;
  std::int64_t min_ = std::numeric_limits<std::int64_t>::max();
  std::int64_t max_ = 0;
};

}  // namespace fcc
