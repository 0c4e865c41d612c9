// Whole-operator reference models the functional tests compare against.
//
// The simulator computes results tile by tile (ops::gemv_tile,
// ops::pool_reference); these recompute the full output directly, so a
// test can check that the tiles a fused or baseline run reassembles match
// the math.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/check.h"
#include "ops/embedding.h"
#include "ops/gemv.h"

namespace fcc::ops {

/// Reference y = W x over the full matrix.
inline std::vector<float> gemv_reference(const GemvShape& s,
                                         std::span<const float> w,
                                         std::span<const float> x) {
  FCC_CHECK(static_cast<std::size_t>(s.m) * s.k == w.size());
  FCC_CHECK(static_cast<std::size_t>(s.k) == x.size());
  std::vector<float> y(static_cast<std::size_t>(s.m));
  for (int r = 0; r < s.m; ++r) {
    double acc = 0;
    const auto* row = &w[static_cast<std::size_t>(r) * s.k];
    for (int c = 0; c < s.k; ++c) {
      acc += static_cast<double>(row[c]) * x[static_cast<std::size_t>(c)];
    }
    y[static_cast<std::size_t>(r)] = static_cast<float>(acc);
  }
  return y;
}

/// Full pooling reference: out[(b * num_tables + t) * dim + d] for the
/// whole batch.
inline std::vector<float> pool_all_reference(const EmbeddingConfig& cfg,
                                             const EmbeddingTables& tables,
                                             const EmbeddingBatch& batch) {
  const auto dim = static_cast<std::size_t>(cfg.dim);
  std::vector<float> out(static_cast<std::size_t>(batch.batch()) *
                         static_cast<std::size_t>(cfg.num_tables) * dim);
  for (int b = 0; b < batch.batch(); ++b) {
    for (int t = 0; t < cfg.num_tables; ++t) {
      const std::size_t off =
          (static_cast<std::size_t>(b) * cfg.num_tables + t) * dim;
      pool_reference(cfg, tables, batch, t, b,
                     std::span<float>(&out[off], dim));
    }
  }
  return out;
}

}  // namespace fcc::ops
