// Communication-aware logical-WG order.
#include <gtest/gtest.h>

#include <algorithm>

#include "gpu/schedule.h"

namespace fcc::gpu {
namespace {

TEST(Schedule, CommAwarePutsRemoteFirst) {
  // Remote: odd indices.
  const auto order = make_schedule(6, [](int i) { return i % 2 == 1; });
  EXPECT_EQ(order, (std::vector<int>{1, 3, 5, 0, 2, 4}));
}

TEST(Schedule, CommAwareIsStableWithinClasses) {
  const auto order = make_schedule(8, [](int i) { return i >= 4; });
  EXPECT_EQ(order, (std::vector<int>{4, 5, 6, 7, 0, 1, 2, 3}));
}

TEST(Schedule, EveryWgAppearsExactlyOnce) {
  auto order = make_schedule(100, [](int i) { return i % 3 == 0; });
  std::sort(order.begin(), order.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Schedule, EmptyGrid) {
  EXPECT_TRUE(make_schedule(0, [](int) { return true; }).empty());
}

}  // namespace
}  // namespace fcc::gpu
