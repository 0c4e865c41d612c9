#include "ops/moe_routing.h"

#include "common/check.h"

namespace fcc::ops {

std::vector<std::int64_t> a2av_counts(const std::vector<DispatchPlan>& plans,
                                      int num_experts,
                                      std::int64_t elems_per_token) {
  const int n = static_cast<int>(plans.size());
  std::vector<std::int64_t> counts(
      static_cast<std::size_t>(n) * static_cast<std::size_t>(num_experts), 0);
  for (int src = 0; src < n; ++src) {
    FCC_CHECK(static_cast<int>(plans[static_cast<std::size_t>(src)]
                                   .counts.size()) == num_experts);
    for (int e = 0; e < num_experts; ++e) {
      counts[static_cast<std::size_t>(src * num_experts + e)] =
          plans[static_cast<std::size_t>(src)]
              .counts[static_cast<std::size_t>(e)] *
          elems_per_token;
    }
  }
  return counts;
}

}  // namespace fcc::ops
