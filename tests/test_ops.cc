// Compute ops: embedding pooling, GEMV/GEMM tiling vs references, costs.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/rng.h"
#include "ops/cost_model.h"
#include "ops/elementwise.h"
#include "ops/embedding.h"
#include "ops/gemm.h"
#include "ops/gemv.h"
#include "reference_models.h"

namespace fcc::ops {
namespace {

TEST(Embedding, PoolSumMatchesManualComputation) {
  EmbeddingConfig cfg;
  cfg.num_tables = 1;
  cfg.rows_per_table = 4;
  cfg.dim = 2;
  cfg.pooling = 3;
  Rng rng(1);
  auto tables = EmbeddingTables::random(cfg, rng);
  auto batch = EmbeddingBatch::uniform(cfg, /*batch=*/2, rng);

  std::vector<float> out(2);
  pool_reference(cfg, tables, batch, 0, 0, out);

  const auto w = tables.table(0);
  const auto ix = batch.table_indices(0);
  for (int d = 0; d < 2; ++d) {
    float expect = 0;
    for (int j = 0; j < 3; ++j) {
      expect += w[static_cast<size_t>(ix[static_cast<size_t>(j)]) * 2 +
                  static_cast<size_t>(d)];
    }
    EXPECT_FLOAT_EQ(out[static_cast<size_t>(d)], expect);
  }
}

TEST(Embedding, MeanModeDividesByPooling) {
  EmbeddingConfig cfg;
  cfg.num_tables = 1;
  cfg.rows_per_table = 8;
  cfg.dim = 4;
  cfg.pooling = 4;
  Rng rng(2);
  auto tables = EmbeddingTables::random(cfg, rng);
  auto batch = EmbeddingBatch::uniform(cfg, 1, rng);

  std::vector<float> sum_out(4), mean_out(4);
  cfg.mode = PoolingMode::kSum;
  pool_reference(cfg, tables, batch, 0, 0, sum_out);
  cfg.mode = PoolingMode::kMean;
  pool_reference(cfg, tables, batch, 0, 0, mean_out);
  for (int d = 0; d < 4; ++d) {
    EXPECT_FLOAT_EQ(mean_out[static_cast<size_t>(d)],
                    sum_out[static_cast<size_t>(d)] / 4.0f);
  }
}

TEST(Embedding, PoolAllLaysOutBatchMajorTableMinor) {
  EmbeddingConfig cfg;
  cfg.num_tables = 3;
  cfg.rows_per_table = 16;
  cfg.dim = 4;
  cfg.pooling = 2;
  Rng rng(3);
  auto tables = EmbeddingTables::random(cfg, rng);
  auto batch = EmbeddingBatch::uniform(cfg, 5, rng);

  auto all = pool_all_reference(cfg, tables, batch);
  ASSERT_EQ(all.size(), 5u * 3u * 4u);
  std::vector<float> one(4);
  pool_reference(cfg, tables, batch, 2, 4, one);
  for (int d = 0; d < 4; ++d) {
    EXPECT_FLOAT_EQ(all[(4u * 3u + 2u) * 4u + static_cast<size_t>(d)],
                    one[static_cast<size_t>(d)]);
  }
}

TEST(Gemv, TilesReassembleToReference) {
  GemvShape s;
  s.m = 37;
  s.k = 19;
  s.tile_rows = 8;
  Rng rng(5);
  auto w = random_vector(static_cast<size_t>(s.m) * s.k, rng);
  auto x = random_vector(static_cast<size_t>(s.k), rng);
  const auto ref = gemv_reference(s, w, x);

  std::vector<float> assembled(static_cast<size_t>(s.m));
  for (int t = 0; t < s.num_tiles(); ++t) {
    std::vector<float> tile_out(static_cast<size_t>(s.tile_rows));
    gemv_tile(s, w, x, t, tile_out);
    for (int r = s.tile_begin(t); r < s.tile_end(t); ++r) {
      assembled[static_cast<size_t>(r)] =
          tile_out[static_cast<size_t>(r - s.tile_begin(t))];
    }
  }
  for (int r = 0; r < s.m; ++r) {
    EXPECT_NEAR(assembled[static_cast<size_t>(r)], ref[static_cast<size_t>(r)],
                1e-4);
  }
}

TEST(Gemv, TileCountCoversRaggedEdge) {
  GemvShape s;
  s.m = 33;
  s.k = 1;
  s.tile_rows = 16;
  EXPECT_EQ(s.num_tiles(), 3);
  EXPECT_EQ(s.tile_end(2), 33);
}

TEST(Gemm, TilesReassembleToReference) {
  GemmShape s;
  s.m = 20;
  s.n = 14;
  s.k = 9;
  s.block_m = 8;
  s.block_n = 8;
  Rng rng(6);
  auto a = random_vector(static_cast<size_t>(s.m) * s.k, rng);
  auto b = random_vector(static_cast<size_t>(s.k) * s.n, rng);
  const auto ref = gemm_reference(s, a, b);

  std::vector<float> assembled(static_cast<size_t>(s.m) * s.n, -1.0f);
  for (int t = 0; t < s.num_tiles(); ++t) {
    const int rows = s.row_end(t) - s.row_begin(t);
    const int cols = s.col_end(t) - s.col_begin(t);
    std::vector<float> tile(static_cast<size_t>(rows) * cols);
    gemm_tile(s, a, b, t, tile);
    for (int i = 0; i < rows; ++i) {
      for (int j = 0; j < cols; ++j) {
        assembled[static_cast<size_t>(s.row_begin(t) + i) * s.n +
                  static_cast<size_t>(s.col_begin(t) + j)] =
            tile[static_cast<size_t>(i) * cols + j];
      }
    }
  }
  for (size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(assembled[i], ref[i], 1e-3);
  }
}

TEST(Gemm, TileGridGeometry) {
  GemmShape s;
  s.m = 128;
  s.n = 96;
  s.k = 4;
  s.block_m = 64;
  s.block_n = 64;
  EXPECT_EQ(s.tiles_m(), 2);
  EXPECT_EQ(s.tiles_n(), 2);
  EXPECT_EQ(s.num_tiles(), 4);
  EXPECT_EQ(s.col_end(1), 96);  // ragged right edge
}

TEST(Elementwise, Relu) {
  std::vector<float> x{-1.0f, 0.0f, 2.0f};
  relu_inplace(x);
  EXPECT_EQ(x, (std::vector<float>{0.0f, 0.0f, 2.0f}));
}

TEST(CostModel, EmbeddingCostScalesWithPoolingAndDim) {
  const auto small = embedding_wg_cost(32, 64, true, kBaselineCurve);
  const auto big = embedding_wg_cost(64, 64, true, kBaselineCurve);
  EXPECT_GT(big.hbm_bytes, small.hbm_bytes);
  EXPECT_NEAR(static_cast<double>(big.hbm_bytes) / small.hbm_bytes, 2.0, 0.1);
}

TEST(CostModel, ZeroCopySkipsLocalWrite) {
  const auto staged = embedding_wg_cost(64, 256, true, kBaselineCurve);
  const auto zero_copy = embedding_wg_cost(64, 256, false, kBaselineCurve);
  EXPECT_EQ(staged.hbm_bytes - zero_copy.hbm_bytes, 256 * 4);
}

TEST(CostModel, GemmTileIsAluBoundForTypicalShapes) {
  const auto c = gemm_tile_cost(64, 64, 1024, kTunedGemmEfficiency,
                                kBaselineCurve);
  // flops/bytes ratio must exceed the machine balance point so GEMM lands
  // ALU-bound (22600 flops/ns vs 1638 B/ns -> ~13.8 flops per byte).
  EXPECT_GT(c.flops / static_cast<double>(c.hbm_bytes), 13.8);
}

}  // namespace
}  // namespace fcc::ops
