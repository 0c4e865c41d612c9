// Per-operator timing costs (the "ROC-profiler measurements" of Table II's
// methodology, produced analytically from the GPU spec instead).
//
// Each logical workgroup's compute step maps to a gpu::WorkCost: bytes the
// WG moves through HBM plus flops it executes; the Device converts that to
// time under the occupancy-dependent bandwidth curve. Calibration constants
// live here so every operator and bench shares one source of truth.
#pragma once

#include "common/types.h"
#include "gpu/device.h"
#include "hw/hbm_model.h"

namespace fcc::ops {

/// Contention curves per kernel family. Baseline kernels saturate flat;
/// the fused persistent embedding kernel adds comm bookkeeping pressure and
/// degrades past the knee (the Fig. 13 trade-off).
inline constexpr hw::HbmCurve kBaselineCurve{0.31, 0.75, 0.0};
inline constexpr hw::HbmCurve kFusedEmbeddingCurve{0.31, 0.75, 0.40};

/// Sustained fraction of peak ALU for tuned dense kernels vs the generic
/// Triton GEMM the paper uses for MoE (Sec. IV-B: "Since we are using a
/// generic GEMM implementation provided with Triton, the GEMM dominates").
inline constexpr double kTunedGemmEfficiency = 0.70;
inline constexpr double kTritonGemmEfficiency = 0.35;

/// Per-logical-WG task-loop + WG_Done bookkeeping cost of a fused
/// persistent kernel (embedding and GEMV), paid after each WG's compute.
inline constexpr TimeNs kFusedWgBookkeepingNs = 40;

/// Embedding pooling, one logical WG = one pooled output vector:
/// reads `pooling` rows of `dim` fp32 + the index list, writes `dim` fp32
/// when staging locally (the zero-copy fused path skips the local write for
/// remote slices — its bytes ride the fabric instead).
inline gpu::WorkCost embedding_wg_cost(int pooling, int dim, bool local_write,
                                       const hw::HbmCurve& curve) {
  gpu::WorkCost c;
  const Bytes reads = static_cast<Bytes>(pooling) * dim * 4 +
                      static_cast<Bytes>(pooling) * 4;  // rows + indices
  const Bytes writes = local_write ? static_cast<Bytes>(dim) * 4 : 0;
  c.hbm_bytes = reads + writes;
  c.flops = static_cast<double>(pooling) * dim;  // adds
  c.alu_efficiency = 1.0;
  c.curve = curve;
  return c;
}

/// GEMV, one logical WG = `tile_rows` output elements: streams the weight
/// tile (tile_rows x k fp32), x is cache-resident.
inline gpu::WorkCost gemv_tile_cost(int tile_rows, int k, bool local_write,
                                    const hw::HbmCurve& curve) {
  gpu::WorkCost c;
  c.hbm_bytes = static_cast<Bytes>(tile_rows) * k * 4 +
                (local_write ? static_cast<Bytes>(tile_rows) * 4 : 0);
  c.flops = 2.0 * tile_rows * k;
  c.alu_efficiency = 1.0;
  c.curve = curve;
  return c;
}

/// Elementwise op over n fp32 (activation, bias add): pure bandwidth.
inline gpu::WorkCost elementwise_cost(std::int64_t n, int streams = 2) {
  gpu::WorkCost c;
  c.hbm_bytes = static_cast<Bytes>(n) * 4 * streams;  // read + write
  c.flops = static_cast<double>(n);
  c.curve = kBaselineCurve;
  return c;
}

/// Default GEMV tile height (rows per logical WG).
inline constexpr int kGemvTileRows = 16;

/// Default GEMM tile (Triton-style block sizes).
inline constexpr int kGemmBlockM = 64;
inline constexpr int kGemmBlockN = 64;

}  // namespace fcc::ops
