// Matrix-vector multiply (token-phase inference workhorse).
//
// Row-major W (m x k), y = W * x. Logical WGs own `tile_rows`-row tiles —
// the unit the fused GEMV+AllReduce operator communicates and reduces.
#pragma once

#include <span>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace fcc::ops {

struct GemvShape {
  int m = 0;  // output rows
  int k = 0;  // reduction dim
  int tile_rows = 16;

  int num_tiles() const { return (m + tile_rows - 1) / tile_rows; }
  int tile_begin(int t) const { return t * tile_rows; }
  int tile_end(int t) const {
    const int e = (t + 1) * tile_rows;
    return e < m ? e : m;
  }
};

/// Computes one tile [tile_begin, tile_end) of y into `out` (tile-local
/// indexing). This is exactly what one logical WG produces.
void gemv_tile(const GemvShape& s, std::span<const float> w,
               std::span<const float> x, int tile, std::span<float> out);

std::vector<float> random_vector(std::size_t n, Rng& rng);

}  // namespace fcc::ops
