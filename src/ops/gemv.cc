#include "ops/gemv.h"

namespace fcc::ops {

void gemv_tile(const GemvShape& s, std::span<const float> w,
               std::span<const float> x, int tile, std::span<float> out) {
  const int r0 = s.tile_begin(tile);
  const int r1 = s.tile_end(tile);
  FCC_CHECK(static_cast<int>(out.size()) >= r1 - r0);
  for (int r = r0; r < r1; ++r) {
    double acc = 0;
    const auto* row = &w[static_cast<std::size_t>(r) * s.k];
    for (int c = 0; c < s.k; ++c) acc += static_cast<double>(row[c]) * x[static_cast<std::size_t>(c)];
    out[static_cast<std::size_t>(r - r0)] = static_cast<float>(acc);
  }
}

std::vector<float> random_vector(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& f : v) f = static_cast<float>(rng.next_double(-1.0, 1.0));
  return v;
}

}  // namespace fcc::ops
