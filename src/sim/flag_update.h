// Compact flag updates: the engine's third event payload kind.
//
// A GPU-initiated flag write (a sliceRdy store, an arrival-counter
// increment) is the only thing most PUTs deliver, and it needs no closure:
// a FlagUpdate packs the target array, the flag's index in it and the
// operation into one word, which the engine queues as the event itself.
//
// Targets are named by a process-wide id. A FlagTarget takes a free id in
// its constructor and returns it in its destructor; the table behind the
// ids has a fixed capacity and never moves, so resolving an id is one load
// and never writes an engine. An update reaches another thread only
// through the sharded engine's barrier (mailbox injection or the deferred
// PUT replay), which orders the target's registration before the load.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/check.h"

namespace fcc::sim {

class FlagTarget;

namespace detail {
inline constexpr unsigned kFlagTargetBits = 14;
/// Registered targets by id (null: free). Written by FlagTarget's
/// constructor and destructor, read by FlagUpdate::apply.
extern std::atomic<FlagTarget*>
    flag_targets[std::size_t{1} << kFlagTargetBits];
}  // namespace detail

/// An array of flags that FlagUpdate events address by flat index.
class FlagTarget {
 public:
  FlagTarget();
  virtual ~FlagTarget();
  FlagTarget(const FlagTarget&) = delete;
  FlagTarget& operator=(const FlagTarget&) = delete;

  /// Applies one delivered update to flag `index`: amount 0 sets it to 1,
  /// any other amount is added.
  virtual void apply_update(std::uint32_t index, std::uint32_t amount) = 0;

 private:
  friend class FlagUpdate;
  std::uint32_t id_;
};

/// One flag update in 62 bits: [amount:16][target id:14][index:32].
class FlagUpdate {
 public:
  static constexpr unsigned kIndexBits = 32;
  static constexpr unsigned kTargetBits = detail::kFlagTargetBits;
  static constexpr unsigned kAmountBits = 16;
  static constexpr unsigned kBits = kIndexBits + kTargetBits + kAmountBits;
  /// The largest amount add() can carry.
  static constexpr std::uint64_t kMaxAmount =
      (std::uint64_t{1} << kAmountBits) - 1;

  /// Sets flag `index` of `target` to 1.
  static FlagUpdate set(const FlagTarget& target, std::uint32_t index) {
    return FlagUpdate(target, index, 0);
  }

  /// Adds `amount` (1..kMaxAmount) to flag `index` of `target`.
  static FlagUpdate add(const FlagTarget& target, std::uint32_t index,
                        std::uint64_t amount) {
    FCC_CHECK(amount >= 1 && amount <= kMaxAmount);
    return FlagUpdate(target, index, amount);
  }

  /// Resolves the target and applies the update.
  void apply() const {
    FlagTarget* target =
        detail::flag_targets[(word_ >> kIndexBits) & kTargetMask].load(
            std::memory_order_acquire);
    FCC_DCHECK(target != nullptr);
    target->apply_update(static_cast<std::uint32_t>(word_),
                         static_cast<std::uint32_t>(
                             word_ >> (kIndexBits + kTargetBits)));
  }

  /// The packed form (below 2^kBits) and back: what an event queue stores.
  std::uint64_t word() const { return word_; }
  static FlagUpdate from_word(std::uint64_t word) { return FlagUpdate(word); }

 private:
  static constexpr std::uint64_t kTargetMask =
      (std::uint64_t{1} << kTargetBits) - 1;

  FlagUpdate(const FlagTarget& target, std::uint32_t index,
             std::uint64_t amount)
      : word_(amount << (kIndexBits + kTargetBits) |
              std::uint64_t{target.id_} << kIndexBits | index) {}
  explicit FlagUpdate(std::uint64_t word) : word_(word) {}

  std::uint64_t word_;
};

}  // namespace fcc::sim
