#include "sim/flag_update.h"

#include <mutex>
#include <vector>

namespace fcc::sim {

namespace detail {
constinit std::atomic<FlagTarget*>
    flag_targets[std::size_t{1} << kFlagTargetBits]{};
}  // namespace detail

namespace {

constexpr std::uint32_t kMaxTargets = std::uint32_t{1}
                                     << FlagUpdate::kTargetBits;

// Id allocation, under `ids_mu`: freed ids first, lowest table slots next.
constinit std::mutex ids_mu;
constinit std::uint32_t next_id = 0;
constinit std::vector<std::uint32_t> free_ids;

}  // namespace

FlagTarget::FlagTarget() {
  std::lock_guard<std::mutex> lock(ids_mu);
  if (!free_ids.empty()) {
    id_ = free_ids.back();
    free_ids.pop_back();
  } else {
    FCC_CHECK_MSG(next_id < kMaxTargets,
                  "more than " << kMaxTargets << " live flag arrays");
    id_ = next_id++;
  }
  detail::flag_targets[id_].store(this, std::memory_order_release);
}

FlagTarget::~FlagTarget() {
  std::lock_guard<std::mutex> lock(ids_mu);
  detail::flag_targets[id_].store(nullptr, std::memory_order_relaxed);
  free_ids.push_back(id_);
}

}  // namespace fcc::sim
