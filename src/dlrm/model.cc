#include "dlrm/model.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/rng.h"
#include "gpu/persistent.h"
#include "ops/cost_model.h"
#include "ops/elementwise.h"
#include "ops/gemm.h"
#include "ops/gemv.h"

namespace fcc::dlrm {
namespace {

/// An MLP layer's tile costs, indexed by tile_variant: full tiles, and
/// tiles on the last row and/or column block.
using TileCosts = std::array<gpu::WorkCost, 4>;

int tile_variant(const ops::GemmShape& s, int pid) {
  return static_cast<int>(s.row_end(pid) - s.row_begin(pid) != s.block_m) +
         2 * static_cast<int>(s.col_end(pid) - s.col_begin(pid) != s.block_n);
}

TileCosts tile_costs(const ops::GemmShape& s) {
  const int last = s.num_tiles() - 1;
  const int edge_rows = s.row_end(last) - s.row_begin(last);
  const int edge_cols = s.col_end(last) - s.col_begin(last);
  TileCosts costs;
  for (int v = 0; v < 4; ++v) {
    costs[static_cast<std::size_t>(v)] = ops::gemm_tile_cost(
        (v & 1) != 0 ? edge_rows : s.block_m,
        (v & 2) != 0 ? edge_cols : s.block_n, s.k, ops::kTunedGemmEfficiency,
        ops::kBaselineCurve);
  }
  return costs;
}

/// Per-PE host activations, [pe][local batch x width] row-major.
using Activations = std::vector<std::vector<float>>;

/// Config of "dlrm::mlp": one GEMM kernel per layer, relu after each.
struct MlpConfig {
  int batch = 0;  // rows per PE
  int in_dim = 0;
  std::vector<int> widths;
  bool sigmoid_out = false;  // the last layer's relu becomes a sigmoid
  std::uint64_t seed = 0;    // functional mode: the weights' draw
};

/// Functional-mode data of the ops (null data: timing only). The
/// interaction (whose config is the DlrmConfig) reads the bottom MLP's
/// output as `in` and the pooled embeddings, [pe][dest_elems], as `emb`.
struct LayerData {
  const Activations* in;
  Activations* out;
  const shmem::SymArray<float>* emb = nullptr;
};

/// One slot of an MLP layer's GEMM kernel: a compute step per output tile.
sim::Co mlp_slot(gpu::KernelRun& run, gpu::Device& dev,
                 const ops::GemmShape& s, const TileCosts& costs, int slot) {
  for (int pid; (pid = co_await run.next(slot)) >= 0;) {
    co_await dev.compute(costs[static_cast<std::size_t>(tile_variant(s, pid))]);
  }
}

/// A compute-only op: each PE's kernels start one launch latency after the
/// op does, with no communication or host sync; both backends build it.
class ComputeOp : public fused::FusedOp {
 public:
  using FusedOp::FusedOp;

  sim::Co run() final {
    begin_run(world_.n_pes());
    co_await run_per_pe_at(
        engine().now() + world_.machine().device(0).spec().kernel_launch_ns,
        world_.n_pes(), [this](PeId pe) { return pe_body(pe); });
    finish_run();
  }

 protected:
  /// PE `pe`'s kernels from the first one's start; stamps its pe_end.
  virtual sim::Co pe_body(PeId pe) = 0;
};

class MlpOp final : public ComputeOp {
 public:
  MlpOp(shmem::World& world, MlpConfig cfg, LayerData* data)
      : ComputeOp(world), cfg_(std::move(cfg)), data_(data) {
    Rng rng(cfg_.seed);
    int k = cfg_.in_dim;
    for (int n : cfg_.widths) {
      // Skinny MLP GEMMs use small tiles so the grid fills the device.
      const ops::GemmShape s{
          .m = cfg_.batch, .n = n, .k = k, .block_m = 16, .block_n = 16};
      std::vector<float> w;  // data parallel: one copy serves every PE
      if (data_ != nullptr) {
        w = ops::random_vector(
            static_cast<std::size_t>(k) * static_cast<std::size_t>(n), rng);
      }
      layers_.push_back({s, tile_costs(s), std::move(w)});
      k = n;
    }
  }

  const char* name() const override { return "dlrm_mlp"; }

 private:
  struct Layer {
    ops::GemmShape shape;
    TileCosts costs;
    std::vector<float> weights;  // [k x n], functional mode only
  };

  sim::Co pe_body(PeId pe) override {
    gpu::Device& dev = world_.machine().device(pe);
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      if (l > 0) {
        co_await sim::delay(dev.engine(), dev.spec().kernel_launch_ns);
      }
      // One GEMM kernel per layer: grid of output tiles.
      const Layer& layer = layers_[l];
      gpu::KernelRun::Params p;
      p.num_slots = dev.spec().max_wg_slots();
      p.num_wgs = layer.shape.num_tiles();  // position = output tile
      p.body = [&dev, &layer](gpu::KernelRun& run, int slot) {
        return mlp_slot(run, dev, layer.shape, layer.costs, slot);
      };
      gpu::KernelRun run(dev.engine(), std::move(p));
      run.start();
      co_await run.wait();
    }
    result_.pe_end[static_cast<std::size_t>(pe)] = dev.engine().now();
    if (data_ == nullptr) co_return;
    // Host reference math: act = relu(act * W) per layer.
    const auto p = static_cast<std::size_t>(pe);
    std::vector<float> act = (*data_->in)[p];
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      act = ops::gemm_reference(layers_[l].shape, act, layers_[l].weights);
      if (l + 1 < layers_.size() || !cfg_.sigmoid_out) ops::relu_inplace(act);
    }
    if (cfg_.sigmoid_out) {
      for (auto& v : act) v = 1.0f / (1.0f + std::exp(-v));
    }
    (*data_->out)[p] = std::move(act);
  }

  MlpConfig cfg_;
  LayerData* data_;
  std::vector<Layer> layers_;
};

class InteractionOp final : public ComputeOp {
 public:
  InteractionOp(shmem::World& world, DlrmConfig cfg, LayerData* data)
      : ComputeOp(world), cfg_(std::move(cfg)), data_(data) {}

  const char* name() const override { return "dlrm_interaction"; }

 private:
  sim::Co pe_body(PeId pe) override {
    gpu::Device& dev = world_.machine().device(pe);
    const auto& spec = dev.spec();
    const int batch = cfg_.emb.map.local_batch();
    const int f = cfg_.num_features();
    const int d = cfg_.emb.map.dim;
    // Pairwise dots over f feature vectors of width d per sample: the
    // kernel saturates the whole device, so charge the aggregate time
    // directly (max of bandwidth- and ALU-limited estimates).
    const double bytes = static_cast<double>(batch) * f * d * 4;
    const double flops =
        static_cast<double>(batch) * f * (f - 1) / 2.0 * 2.0 * d;
    const double t_mem =
        bytes / dev.hbm().total_bandwidth(spec.max_wg_slots());
    const double t_alu = flops / (0.5 * spec.fp32_flops_per_ns);
    co_await sim::delay(dev.engine(),
                        static_cast<TimeNs>(std::max(t_mem, t_alu)));
    result_.pe_end[static_cast<std::size_t>(pe)] = dev.engine().now();
    if (data_ == nullptr) co_return;
    // Host reference math: pairwise dots among [tables x emb, bottom out].
    const auto& map = cfg_.emb.map;
    const auto width = static_cast<std::size_t>(cfg_.interaction_dim());
    const auto emb = data_->emb->pe(pe);
    const auto p = static_cast<std::size_t>(pe);
    const std::vector<float>& bottom = (*data_->in)[p];
    std::vector<float>& feats = (*data_->out)[p];
    feats.assign(static_cast<std::size_t>(batch) * width, 0.0f);
    std::vector<const float*> vecs(static_cast<std::size_t>(f));
    for (int b = 0; b < batch; ++b) {
      // Gather the f feature vectors.
      for (int gt = 0; gt < f - 1; ++gt) {
        vecs[static_cast<std::size_t>(gt)] = &emb[map.dest_offset(b, gt, 0)];
      }
      const float* bot =
          &bottom[static_cast<std::size_t>(b) * static_cast<std::size_t>(d)];
      vecs.back() = bot;
      std::size_t off = static_cast<std::size_t>(b) * width;
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
  }

  DlrmConfig cfg_;
  LayerData* data_;
};

/// The forward graph's ops: the compute-only ones, kept out of the global
/// registry (every op there must beat its baseline), and a copy of the
/// global embedding + All-to-All entry.
const fw::OpRegistry& registry() {
  static const fw::OpRegistry reg = [] {
    fw::OpRegistry r;
    r.register_op({.name = "dlrm::mlp",
                   .make = fw::pair_factory<MlpConfig, LayerData, MlpOp,
                                            MlpOp>()});
    r.register_op({.name = "dlrm::interaction",
                   .make = fw::pair_factory<DlrmConfig, LayerData,
                                            InteractionOp, InteractionOp>()});
    r.register_op(fw::OpRegistry::global().at("fcc::embedding_a2a"));
    return r;
  }();
  return reg;
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

struct DlrmModel::State {
  Activations dense, bottom, feats, logits;
  std::unique_ptr<shmem::SymArray<float>> emb;
  fused::EmbeddingA2AData emb_data;
  LayerData bottom_data, interaction_data, top_data;
  fw::Graph graph;
  std::unique_ptr<fw::GraphExecutor> executor;
};

DlrmModel::DlrmModel(fw::Session& session, DlrmConfig cfg)
    : session_(session),
      cfg_(std::move(cfg)),
      state_(std::make_unique<State>()) {
  cfg_.validate();
  State& st = *state_;
  const auto& map = cfg_.emb.map;
  const bool functional = cfg_.emb.functional;
  for (Activations* a : {&st.dense, &st.bottom, &st.feats, &st.logits}) {
    a->resize(static_cast<std::size_t>(map.num_pes));
  }
  st.emb = session_.symmetric_empty(map.dest_elems(), functional);
  st.emb_data.output = st.emb.get();
  st.bottom_data = {&st.dense, &st.bottom};
  st.interaction_data = {&st.bottom, &st.feats, st.emb.get()};
  st.top_data = {&st.feats, &st.logits};
  auto data = [functional](auto* d) { return functional ? d : nullptr; };

  fw::Graph& g = st.graph;
  const fw::TensorId bottom = g.tensor("bottom");
  const fw::TensorId emb = g.tensor("emb");
  const fw::TensorId feats = g.tensor("feats");
  g.add("dlrm::mlp",
        MlpConfig{map.local_batch(), cfg_.dense_dim, cfg_.bottom_mlp,
                  /*sigmoid_out=*/false, /*seed=*/0xD1C3},
        data(&st.bottom_data), {g.tensor("dense")}, {bottom}, "bottom_mlp");
  g.add("fcc::embedding_a2a", cfg_.emb, data(&st.emb_data), {}, {emb},
        "embedding_a2a");
  g.add("dlrm::interaction", cfg_, data(&st.interaction_data),
        {bottom, emb}, {feats}, "interaction");
  g.add("dlrm::mlp",
        MlpConfig{map.local_batch(), cfg_.interaction_dim(), cfg_.top_mlp,
                  /*sigmoid_out=*/true, /*seed=*/0xD1C4},
        data(&st.top_data), {feats}, {g.tensor("logits")}, "top_mlp");
  st.executor = std::make_unique<fw::GraphExecutor>(
      session_.world(), g,
      std::vector<fw::Backend>(static_cast<std::size_t>(g.num_nodes()),
                               cfg_.backend),
      registry());
}

DlrmModel::~DlrmModel() = default;

DlrmResult DlrmModel::forward(std::uint64_t seed) {
  State& st = *state_;
  if (cfg_.emb.functional) {
    Rng rng(seed);
    for (auto& d : st.dense) {
      d = ops::random_vector(
          static_cast<std::size_t>(cfg_.emb.map.local_batch()) *
              static_cast<std::size_t>(cfg_.dense_dim),
          rng);
    }
    st.emb_data = fused::EmbeddingA2AData::random(cfg_.emb, st.emb.get(),
                                                  seed ^ 0xE5B);
  }

  const fw::GraphResult g = st.executor->run_to_completion();
  DlrmResult res;
  res.emb_a2a = g.nodes[1].result;
  res.bottom_mlp_ns = g.nodes[0].result.duration();
  // The tail runs interaction and top MLP back to back on every PE; it is
  // recorded as one lump.
  res.top_mlp_ns = g.nodes[3].result.end - g.nodes[2].result.start;
  res.total_ns = g.makespan();
  res.events = session_.machine().last_run_stats().events;
  if (cfg_.emb.functional) res.logits = st.logits;
  return res;
}

}  // namespace fcc::dlrm
