#include "gpu/schedule.h"

#include "common/check.h"

namespace fcc::gpu {

std::vector<int> make_schedule(int n,
                               const std::function<bool(int)>& is_remote) {
  FCC_CHECK(n >= 0);
  std::vector<int> order;
  order.reserve(n);
  // Stable two-pass partition keeps intra-class order sequential, which
  // preserves slice contiguity (WGs of one slice stay adjacent).
  for (int i = 0; i < n; ++i) {
    if (is_remote(i)) order.push_back(i);
  }
  for (int i = 0; i < n; ++i) {
    if (!is_remote(i)) order.push_back(i);
  }
  return order;
}

}  // namespace fcc::gpu
