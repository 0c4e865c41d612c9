#include "ops/embedding.h"

namespace fcc::ops {

EmbeddingTables EmbeddingTables::random(const EmbeddingConfig& cfg, Rng& rng) {
  FCC_CHECK(cfg.num_tables >= 1);
  FCC_CHECK(cfg.rows_per_table >= 1);
  FCC_CHECK(cfg.dim >= 1);
  EmbeddingTables out;
  out.tables_.resize(static_cast<std::size_t>(cfg.num_tables));
  for (auto& t : out.tables_) {
    t.resize(static_cast<std::size_t>(cfg.rows_per_table) *
             static_cast<std::size_t>(cfg.dim));
    for (auto& w : t) {
      w = static_cast<float>(rng.next_double(-1.0, 1.0));
    }
  }
  return out;
}

EmbeddingBatch EmbeddingBatch::uniform(const EmbeddingConfig& cfg, int batch,
                                       Rng& rng) {
  FCC_CHECK(batch >= 1);
  EmbeddingBatch out;
  out.batch_ = batch;
  out.indices_.resize(static_cast<std::size_t>(cfg.num_tables));
  for (auto& ti : out.indices_) {
    ti.resize(static_cast<std::size_t>(batch) *
              static_cast<std::size_t>(cfg.pooling));
    for (auto& ix : ti) {
      ix = static_cast<std::int32_t>(rng.next_below(
          static_cast<std::uint64_t>(cfg.rows_per_table)));
    }
  }
  return out;
}

void pool_reference(const EmbeddingConfig& cfg, const EmbeddingTables& tables,
                    const EmbeddingBatch& batch, int t, int b,
                    std::span<float> out) {
  FCC_CHECK(static_cast<int>(out.size()) == cfg.dim);
  FCC_CHECK(b >= 0 && b < batch.batch());
  const auto weights = tables.table(t);
  const auto indices = batch.table_indices(t);
  for (int d = 0; d < cfg.dim; ++d) out[static_cast<std::size_t>(d)] = 0.0f;
  for (int j = 0; j < cfg.pooling; ++j) {
    const auto row = static_cast<std::size_t>(
        indices[static_cast<std::size_t>(b) * cfg.pooling + j]);
    const auto* src = &weights[row * static_cast<std::size_t>(cfg.dim)];
    for (int d = 0; d < cfg.dim; ++d) {
      out[static_cast<std::size_t>(d)] += src[d];
    }
  }
}

}  // namespace fcc::ops
