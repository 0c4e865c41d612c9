#include "dlrm/model.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/rng.h"
#include "gpu/persistent.h"
#include "ops/cost_model.h"
#include "ops/elementwise.h"
#include "ops/gemv.h"
#include "sim/task.h"

namespace fcc::dlrm {
namespace {

/// Host reference MLP layer: out = relu(in * W), in: [batch x k], W: [k x n].
std::vector<float> mlp_layer_ref(const std::vector<float>& in, int batch,
                                 int k, int n, const std::vector<float>& w,
                                 bool relu) {
  ops::GemmShape s;
  s.m = batch;
  s.k = k;
  s.n = n;
  auto out = ops::gemm_reference(s, in, w);
  if (relu) ops::relu_inplace(out);
  return out;
}

/// An MLP layer's tile costs, indexed by tile_variant: full tiles, and
/// tiles on the last row and/or column block.
using TileCosts = std::array<gpu::WorkCost, 4>;

int tile_variant(const ops::GemmShape& s, int pid) {
  return static_cast<int>(s.row_end(pid) - s.row_begin(pid) != s.block_m) +
         2 * static_cast<int>(s.col_end(pid) - s.col_begin(pid) != s.block_n);
}

TileCosts tile_costs(const ops::GemmShape& s, double efficiency) {
  const int last = s.num_tiles() - 1;
  const int edge_rows = s.row_end(last) - s.row_begin(last);
  const int edge_cols = s.col_end(last) - s.col_begin(last);
  TileCosts costs;
  for (int v = 0; v < 4; ++v) {
    costs[static_cast<std::size_t>(v)] = ops::gemm_tile_cost(
        (v & 1) != 0 ? edge_rows : s.block_m,
        (v & 2) != 0 ? edge_cols : s.block_n, s.k, efficiency,
        ops::kBaselineCurve);
  }
  return costs;
}

/// One slot of an MLP layer's GEMM kernel: a compute step per output tile.
/// The shape and costs belong to the launching mlp_stack frame.
sim::Co mlp_slot(gpu::KernelRun& run, gpu::Device& dev,
                 const ops::GemmShape& s, const TileCosts& costs, int slot) {
  for (int pid; (pid = co_await run.next(slot)) >= 0;) {
    co_await dev.compute(costs[static_cast<std::size_t>(tile_variant(s, pid))]);
  }
}

}  // namespace

void DlrmConfig::validate() const {
  emb.map.validate();
  FCC_CHECK(!bottom_mlp.empty());
  FCC_CHECK(!top_mlp.empty());
  FCC_CHECK_MSG(bottom_mlp.back() == emb.map.dim,
                "bottom MLP output width must equal the embedding dim for "
                "the dot interaction");
}

DlrmModel::DlrmModel(fw::Session& session, DlrmConfig cfg)
    : session_(session), cfg_(std::move(cfg)) {
  cfg_.validate();
  // Data-parallel weights: one copy, shared by every PE.
  Rng rng(0xD1C3);
  int in = cfg_.dense_dim;
  for (int w : cfg_.bottom_mlp) {
    weights_.bottom.push_back(ops::random_vector(
        static_cast<std::size_t>(in) * static_cast<std::size_t>(w), rng));
    in = w;
  }
  in = cfg_.interaction_dim();
  for (int w : cfg_.top_mlp) {
    weights_.top.push_back(ops::random_vector(
        static_cast<std::size_t>(in) * static_cast<std::size_t>(w), rng));
    in = w;
  }
}

sim::Co DlrmModel::mlp_stack(PeId pe, int batch, int in_dim,
                             const std::vector<int>& widths,
                             double efficiency) {
  auto& machine = session_.machine();
  auto& dev = machine.device(pe);
  const auto& spec = dev.spec();
  int k = in_dim;
  for (int n : widths) {
    co_await sim::delay(machine.engine(), spec.kernel_launch_ns);
    // One GEMM kernel per layer: grid of output tiles.
    ops::GemmShape s;
    s.m = batch;
    s.k = k;
    s.n = n;
    // Skinny MLP GEMMs use small tiles so the grid fills the device.
    s.block_m = 16;
    s.block_n = 16;
    const TileCosts costs = tile_costs(s, efficiency);
    gpu::KernelRun::Params p;
    p.num_slots = spec.max_wg_slots();
    p.num_wgs = s.num_tiles();  // position = output tile
    p.body = [&dev, &s, &costs](gpu::KernelRun& run, int slot) {
      return mlp_slot(run, dev, s, costs, slot);
    };
    gpu::KernelRun run(machine.engine(), std::move(p));
    run.start();
    co_await run.wait();
    k = n;
  }
}

sim::Co DlrmModel::interaction_kernel(PeId pe, int batch) {
  auto& machine = session_.machine();
  auto& dev = machine.device(pe);
  const int f = cfg_.num_features();
  const int d = cfg_.emb.map.dim;
  co_await sim::delay(machine.engine(), dev.spec().kernel_launch_ns);
  // Pairwise dots over f feature vectors of width d per sample: the kernel
  // saturates the whole device, so charge the aggregate time directly
  // (max of bandwidth- and ALU-limited estimates).
  const double bytes = static_cast<double>(batch) * f * d * 4;
  const double flops = static_cast<double>(batch) * f * (f - 1) / 2.0 * 2.0 * d;
  const auto& spec = dev.spec();
  const double t_mem = bytes / dev.hbm().total_bandwidth(spec.max_wg_slots());
  const double t_alu = flops / (0.5 * spec.fp32_flops_per_ns);
  co_await sim::delay(machine.engine(),
                      static_cast<TimeNs>(std::max(t_mem, t_alu)));
}

DlrmResult DlrmModel::forward(std::uint64_t seed) {
  auto& machine = session_.machine();
  auto& engine = machine.engine();
  const auto& map = cfg_.emb.map;
  const int pes = map.num_pes;
  const int lb = map.local_batch();
  DlrmResult res;

  // --- inputs ---
  Rng rng(seed);
  std::vector<std::vector<float>> dense;  // [pe][lb * dense_dim]
  for (int pe = 0; pe < pes; ++pe) {
    dense.push_back(ops::random_vector(
        static_cast<std::size_t>(lb) * static_cast<std::size_t>(cfg_.dense_dim),
        rng));
  }
  auto emb_out = session_.symmetric_empty(map.dest_elems(),
                                          cfg_.emb.functional);
  fused::EmbeddingA2AData data;
  if (cfg_.emb.functional) {
    data = fused::EmbeddingA2AData::random(cfg_.emb, emb_out.get(),
                                           seed ^ 0xE5B);
  }

  // --- overlapped stage: bottom MLP (independent) + embedding + A2A ---
  const TimeNs t0 = engine.now();
  TimeNs bottom_done = 0;
  {
    sim::JoinCounter join(engine, pes + 1);
    struct BottomDriver {
      static sim::Task go(sim::Engine& e, DlrmModel& m, PeId pe, int lb2,
                          sim::JoinCounter& join, TimeNs& done_at) {
        co_await m.mlp_stack(pe, lb2, m.cfg_.dense_dim, m.cfg_.bottom_mlp,
                             ops::kTunedGemmEfficiency);
        done_at = std::max(done_at, e.now());
        join.arrive();
      }
    };
    struct EmbDriver {
      static sim::Task go(sim::Engine&, DlrmModel& m,
                          fused::EmbeddingA2AData* d, sim::JoinCounter& join,
                          fused::OperatorResult& out) {
        if (m.cfg_.backend == fw::Backend::kFused) {
          fused::FusedEmbeddingAllToAll op(m.session_.world(), m.cfg_.emb, d);
          co_await op.run();
          out = op.result();
        } else {
          fused::BaselineEmbeddingAllToAll op(m.session_.world(), m.cfg_.emb,
                                              d);
          co_await op.run();
          out = op.result();
        }
        join.arrive();
      }
    };
    for (PeId pe = 0; pe < pes; ++pe) {
      BottomDriver::go(engine, *this, pe, lb, join, bottom_done);
    }
    EmbDriver::go(engine, *this, cfg_.emb.functional ? &data : nullptr, join,
                  res.emb_a2a);
    // Drain this stage.
    struct Join {
      static sim::Task go(sim::Engine&, sim::JoinCounter& j, bool& flag) {
        co_await j.wait();
        flag = true;
      }
    };
    bool stage_done = false;
    Join::go(engine, join, stage_done);
    res.events += engine.run();
    FCC_CHECK_MSG(stage_done && engine.live_tasks() == 0,
                  "DLRM overlapped stage deadlocked");
  }
  res.bottom_mlp_ns = bottom_done - t0;

  // --- interaction + top MLP (sequential, per PE in parallel) ---
  {
    const TimeNs t1 = engine.now();
    sim::JoinCounter join(engine, pes);
    struct TailDriver {
      static sim::Task go(sim::Engine&, DlrmModel& m, PeId pe, int lb2,
                          sim::JoinCounter& join) {
        co_await m.interaction_kernel(pe, lb2);
        co_await m.mlp_stack(pe, lb2, m.cfg_.interaction_dim(), m.cfg_.top_mlp,
                             ops::kTunedGemmEfficiency);
        join.arrive();
      }
    };
    for (PeId pe = 0; pe < pes; ++pe) {
      TailDriver::go(engine, *this, pe, lb, join);
    }
    struct Join {
      static sim::Task go(sim::Engine&, sim::JoinCounter& j, bool& flag) {
        co_await j.wait();
        flag = true;
      }
    };
    bool tail_done = false;
    Join::go(engine, join, tail_done);
    res.events += engine.run();
    FCC_CHECK(tail_done);
    // The tail runs interaction and top MLP back to back on every PE; it
    // is recorded as one lump.
    res.top_mlp_ns = engine.now() - t1;
  }
  res.total_ns = engine.now() - t0;

  // --- functional math (host reference path shared by both backends) ---
  if (cfg_.emb.functional) {
    for (int pe = 0; pe < pes; ++pe) {
      // Bottom MLP.
      std::vector<float> act = dense[static_cast<std::size_t>(pe)];
      int k = cfg_.dense_dim;
      for (std::size_t l = 0; l < cfg_.bottom_mlp.size(); ++l) {
        const int n = cfg_.bottom_mlp[l];
        act = mlp_layer_ref(act, lb, k, n, weights_.bottom[l], true);
        k = n;
      }
      // Interaction: pairwise dots among [tables x emb, bottom out].
      const int f = cfg_.num_features();
      const int d = map.dim;
      const int t_global = f - 1;
      auto emb_pe = emb_out->pe(pe);
      std::vector<float> feats(static_cast<std::size_t>(lb) *
                               static_cast<std::size_t>(cfg_.interaction_dim()));
      for (int b = 0; b < lb; ++b) {
        // Gather the f feature vectors.
        std::vector<const float*> vecs;
        for (int gt = 0; gt < t_global; ++gt) {
          vecs.push_back(&emb_pe[map.dest_offset(b, gt, 0)]);
        }
        const float* bot =
            &act[static_cast<std::size_t>(b) * static_cast<std::size_t>(d)];
        vecs.push_back(bot);
        std::size_t off = static_cast<std::size_t>(b) *
                          static_cast<std::size_t>(cfg_.interaction_dim());
        for (int i = 0; i < f; ++i) {
          for (int j = i + 1; j < f; ++j) {
            double dot = 0;
            for (int c = 0; c < d; ++c) {
              dot += static_cast<double>(vecs[static_cast<std::size_t>(i)][c]) *
                     vecs[static_cast<std::size_t>(j)][c];
            }
            feats[off++] = static_cast<float>(dot);
          }
        }
        for (int c = 0; c < d; ++c) feats[off++] = bot[c];
      }
      // Top MLP (+ sigmoid on the final logit).
      std::vector<float> top = feats;
      k = cfg_.interaction_dim();
      for (std::size_t l = 0; l < cfg_.top_mlp.size(); ++l) {
        const int n = cfg_.top_mlp[l];
        const bool last = (l + 1 == cfg_.top_mlp.size());
        top = mlp_layer_ref(top, lb, k, n, weights_.top[l], !last);
        k = n;
      }
      for (auto& v : top) v = 1.0f / (1.0f + std::exp(-v));
      res.logits.push_back(std::move(top));
    }
  }
  return res;
}

}  // namespace fcc::dlrm
