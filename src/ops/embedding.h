// Embedding tables and pooled-embedding (EmbeddingBag sum/mean) compute.
//
// Functional storage is optional: large timing-only sweeps keep only the
// shape metadata, tests and examples carry real weights and verify values.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace fcc::ops {

enum class PoolingMode { kSum, kMean };

struct EmbeddingConfig {
  int num_tables = 8;       // tables held by one GPU
  int rows_per_table = 1000;
  int dim = 256;            // embedding dimension
  int pooling = 64;         // indices pooled per output vector
  PoolingMode mode = PoolingMode::kSum;
};

/// Weights for one GPU's local tables. weights(t)[r*dim + d].
class EmbeddingTables {
 public:
  EmbeddingTables() = default;

  static EmbeddingTables random(const EmbeddingConfig& cfg, Rng& rng);

  int num_tables() const { return static_cast<int>(tables_.size()); }
  std::span<const float> table(int t) const {
    return std::span<const float>(tables_.at(static_cast<std::size_t>(t)));
  }

 private:
  std::vector<std::vector<float>> tables_;
};

/// Categorical indices for one GPU's tables over a batch:
/// indices(t)[b * pooling + j], drawn uniformly.
class EmbeddingBatch {
 public:
  EmbeddingBatch() = default;

  static EmbeddingBatch uniform(const EmbeddingConfig& cfg, int batch,
                                Rng& rng);

  int batch() const { return batch_; }
  std::span<const std::int32_t> table_indices(int t) const {
    return std::span<const std::int32_t>(
        indices_.at(static_cast<std::size_t>(t)));
  }

 private:
  int batch_ = 0;
  std::vector<std::vector<std::int32_t>> indices_;
};

/// Reference pooling of one output vector (table t, sample b) into `out`
/// (length cfg.dim). This is the numerics the simulated kernels must match.
void pool_reference(const EmbeddingConfig& cfg, const EmbeddingTables& tables,
                    const EmbeddingBatch& batch, int t, int b,
                    std::span<float> out);

}  // namespace fcc::ops
