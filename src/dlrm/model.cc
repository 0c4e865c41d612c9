#include "dlrm/model.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>

#include "common/rng.h"
#include "ops/cost_model.h"
#include "ops/elementwise.h"
#include "ops/gemm.h"
#include "ops/gemv.h"
#include "triton/tile_lang.h"

namespace fcc::dlrm {
namespace {

/// Per-PE host activations, [pe][local batch x width] row-major.
using Activations = std::vector<std::vector<float>>;

/// Config of "dlrm::mlp" (one GEMM kernel per layer, relu after each) and
/// of its backward pass, "dlrm::mlp_backward".
struct MlpConfig {
  int batch = 0;  // rows per PE
  int in_dim = 0;
  std::vector<int> widths;
  bool sigmoid_out = false;  // the last layer's relu becomes a sigmoid
  std::uint64_t seed = 0;    // functional mode: the weights' draw

  std::int64_t params() const {  // weights: k x n per layer
    std::int64_t sum = 0;
    int k = in_dim;
    for (int n : widths) {
      sum += static_cast<std::int64_t>(k) * n;
      k = n;
    }
    return sum;
  }
};

/// Functional-mode data of the ops (null data: timing only). The
/// interaction (whose config is the DlrmConfig) reads the bottom MLP's
/// output as `in` and the pooled embeddings, [pe][dest_elems], as `emb`.
struct LayerData {
  const Activations* in;
  Activations* out;
  const shmem::SymArray<float>* emb = nullptr;
};

/// An MLP GEMM C(m x n) = A(m x k) B(k x n). Skinny GEMMs use 16x16 tiles
/// so the grid fills the device; while the grid exceeds one wave of
/// `slots`, the smaller tile side that is still short of its dimension
/// doubles (a wide layer's gradient GEMMs would otherwise run ~10^6 tiles).
ops::GemmShape mlp_gemm(int m, int n, int k, int slots) {
  ops::GemmShape s{.m = m, .n = n, .k = k, .block_m = 16, .block_n = 16};
  while (s.num_tiles() > slots) {
    const bool grow_m =
        s.block_m < m && (s.block_m < s.block_n || s.block_n >= n);
    (grow_m ? s.block_m : s.block_n) *= 2;
  }
  return s;
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
  /// Forward: act = relu(act * W) per layer, functional when `data` is
  /// non-null. Backward (timing only), last layer first: the weight
  /// gradient dW = act^T * dY, then the input gradient dX = dY * W^T, so
  /// twice the forward's flops.
  MlpOp(shmem::World& world, MlpConfig cfg, LayerData* data,
        bool backward = false)
      : ComputeOp(world),
        cfg_(std::move(cfg)),
        data_(data),
        backward_(backward) {
    // One tile-DSL GEMM per layer. A plain GEMM's occupancy (256 threads x
    // 128 VGPRs) is the device's max_wg_slots, the wave mlp_gemm fills.
    const int slots = world.machine().device(0).spec().max_wg_slots();
    auto add = [&](int m, int n, int k) {
      kernels_.push_back(std::make_unique<triton::TileKernel>(
          name(), mlp_gemm(m, n, k, slots), ops::kTunedGemmEfficiency));
      kernels_.back()->load_a().load_b().dot().store_c_local({});
    };
    std::vector<int> in(1, cfg_.in_dim);  // layer l's input width
    in.insert(in.end(), cfg_.widths.begin(), cfg_.widths.end() - 1);
    if (backward_) {
      for (std::size_t l = cfg_.widths.size(); l-- > 0;) {
        add(in[l], cfg_.widths[l], cfg_.batch);  // dW
        add(cfg_.batch, in[l], cfg_.widths[l]);  // dX
      }
      return;
    }
    Rng rng(cfg_.seed);
    for (std::size_t l = 0; l < cfg_.widths.size(); ++l) {
      add(cfg_.batch, cfg_.widths[l], in[l]);
      if (data_ != nullptr) {  // data parallel: one copy serves every PE
        weights_.push_back(ops::random_vector(
            static_cast<std::size_t>(in[l]) *
                static_cast<std::size_t>(cfg_.widths[l]),
            rng));
      }
    }
  }

  const char* name() const override {
    return backward_ ? "dlrm_mlp_backward" : "dlrm_mlp";
  }

 private:
  sim::Co pe_body(PeId pe) override {
    gpu::Device& dev = world_.machine().device(pe);
    // A hardware-dispatched grid of output tiles: no task-loop claim cost.
    triton::TileKernel::LaunchConfig lc;
    lc.world = &world_;
    lc.pe = pe;
    lc.dispatch_overhead_ns = 0;
    for (std::size_t i = 0; i < kernels_.size(); ++i) {
      if (i > 0) {
        co_await sim::delay(dev.engine(), dev.spec().kernel_launch_ns);
      }
      co_await kernels_[i]->launch(lc);
    }
    result_.pe_end[static_cast<std::size_t>(pe)] = dev.engine().now();
    if (data_ == nullptr) co_return;
    // Host reference math: act = relu(act * W) per layer.
    const auto p = static_cast<std::size_t>(pe);
    std::vector<float> act = (*data_->in)[p];
    for (std::size_t l = 0; l < kernels_.size(); ++l) {
      act = ops::gemm_reference(kernels_[l]->shape(), act, weights_[l]);
      if (l + 1 < kernels_.size() || !cfg_.sigmoid_out) ops::relu_inplace(act);
    }
    if (cfg_.sigmoid_out) {
      for (auto& v : act) v = 1.0f / (1.0f + std::exp(-v));
    }
    (*data_->out)[p] = std::move(act);
  }

  MlpConfig cfg_;
  LayerData* data_;
  bool backward_;
  std::vector<std::unique_ptr<triton::TileKernel>> kernels_;
  std::vector<std::vector<float>> weights_;  // [layer][k x n], functional
};

class InteractionOp final : public ComputeOp {
 public:
  /// Backward (timing only) reads the output gradient and the feature
  /// vectors and writes the vectors' gradients: twice the forward's bytes
  /// and flops.
  InteractionOp(shmem::World& world, DlrmConfig cfg, LayerData* data,
                bool backward = false)
      : ComputeOp(world),
        cfg_(std::move(cfg)),
        data_(data),
        backward_(backward) {}

  const char* name() const override {
    return backward_ ? "dlrm_interaction_backward" : "dlrm_interaction";
  }

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
    const double passes = backward_ ? 2.0 : 1.0;
    const double bytes = passes * batch * f * d * 4;
    const double flops = passes * batch * f * (f - 1) / 2.0 * 2.0 * d;
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
  bool backward_;
};

/// The data-parallel MLP weight gradients, summed across PEs by one ring
/// AllReduce of `elems` fp32; both backends build it. The ring is pinned:
/// kAuto would pick two-phase direct at 8 nodes (6.12 vs 6.20 ms) and the
/// ring from 16, so the pin keeps every Fig. 15 point on RCCL's ring. It
/// pays the baseline collective's kernel launch and stream sync.
class GradAllReduceOp final : public fused::FusedOp {
 public:
  GradAllReduceOp(shmem::World& world, std::int64_t elems)
      : FusedOp(world),
        comm_(world.machine(), fused::all_pes(world.machine())),
        elems_(elems) {}

  const char* name() const override { return "dlrm_grad_allreduce"; }

  sim::Co run() override {
    const auto& spec = world_.machine().device(0).spec();
    begin_run(world_.n_pes());
    co_await sim::delay(engine(), spec.kernel_launch_ns);
    co_await comm_.all_reduce(elems_, ccl::FloatBufs{},
                              ccl::AllReduceAlgo::kRing);
    co_await sim::delay(engine(), spec.stream_sync_ns);
    finish_run_uniform();
  }

 private:
  ccl::Communicator comm_;
  std::int64_t elems_;
};

/// Factory of a timing-only op built as `Op(world, config, nullptr,
/// /*backward=*/true)` on either backend.
template <typename Config, typename Op>
fw::OpEntry::Factory backward_factory() {
  return [](shmem::World& world, const fw::OpSpec& spec,
            fw::Backend) -> std::unique_ptr<fused::FusedOp> {
    return std::make_unique<Op>(world, fw::spec_config<Config>(spec), nullptr,
                                /*backward=*/true);
  };
}

/// The graphs' ops: the compute-only ones and the gradient AllReduce, kept
/// out of the global registry (every op there must beat its baseline), and
/// a copy of the global embedding + All-to-All entry.
const fw::OpRegistry& registry() {
  static const fw::OpRegistry reg = [] {
    fw::OpRegistry r;
    r.register_op({.name = "dlrm::mlp",
                   .make = fw::pair_factory<MlpConfig, LayerData, MlpOp,
                                            MlpOp>()});
    r.register_op({.name = "dlrm::mlp_backward",
                   .make = backward_factory<MlpConfig, MlpOp>()});
    r.register_op({.name = "dlrm::interaction",
                   .make = fw::pair_factory<DlrmConfig, LayerData,
                                            InteractionOp, InteractionOp>()});
    r.register_op({.name = "dlrm::interaction_backward",
                   .make = backward_factory<DlrmConfig, InteractionOp>()});
    r.register_op(
        {.name = "dlrm::grad_allreduce",
         .make = [](shmem::World& world, const fw::OpSpec& spec,
                    fw::Backend) -> std::unique_ptr<fused::FusedOp> {
           return std::make_unique<GradAllReduceOp>(
               world, fw::spec_config<std::int64_t>(spec));
         }});
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
  fw::Graph graph, train_graph;
  std::unique_ptr<fw::GraphExecutor> executor, train_executor;

  /// A graph's forward tensors.
  struct Forward {
    fw::TensorId dense, bottom, emb, feats, logits;
  };

  /// Adds the forward pass's four nodes to `g`, functional when
  /// `functional`.
  Forward add_forward(fw::Graph& g, const DlrmConfig& cfg, bool functional) {
    auto data = [functional](auto* d) { return functional ? d : nullptr; };
    const Forward f{g.tensor("dense"), g.tensor("bottom"), g.tensor("emb"),
                    g.tensor("feats"), g.tensor("logits")};
    g.add("dlrm::mlp", bottom_mlp(cfg), data(&bottom_data), {f.dense},
          {f.bottom}, "bottom_mlp");
    g.add("fcc::embedding_a2a", cfg.emb, data(&emb_data), {}, {f.emb},
          "embedding_a2a");
    g.add("dlrm::interaction", cfg, data(&interaction_data),
          {f.bottom, f.emb}, {f.feats}, "interaction");
    g.add("dlrm::mlp", top_mlp(cfg), data(&top_data), {f.feats}, {f.logits},
          "top_mlp");
    return f;
  }

  static MlpConfig bottom_mlp(const DlrmConfig& cfg) {
    return {cfg.emb.map.local_batch(), cfg.dense_dim, cfg.bottom_mlp,
            /*sigmoid_out=*/false, /*seed=*/0xD1C3};
  }
  static MlpConfig top_mlp(const DlrmConfig& cfg) {
    return {cfg.emb.map.local_batch(), cfg.interaction_dim(), cfg.top_mlp,
            /*sigmoid_out=*/true, /*seed=*/0xD1C4};
  }
};

namespace {

std::unique_ptr<fw::GraphExecutor> make_executor(fw::Session& session,
                                                 const fw::Graph& g,
                                                 fw::Backend backend) {
  return std::make_unique<fw::GraphExecutor>(
      session.world(), g,
      std::vector<fw::Backend>(static_cast<std::size_t>(g.num_nodes()),
                               backend),
      registry());
}

}  // namespace

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
  st.add_forward(st.graph, cfg_, functional);
  st.executor = make_executor(session_, st.graph, cfg_.backend);
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

fw::GraphResult DlrmModel::train_step() {
  State& st = *state_;
  if (st.train_executor == nullptr) {
    DlrmConfig cfg = cfg_;
    cfg.emb.functional = false;  // the iteration carries no data
    fw::Graph& g = st.train_graph;
    const State::Forward f = st.add_forward(g, cfg, /*functional=*/false);
    const fw::TensorId d_feats = g.tensor("d_feats");
    const fw::TensorId d_bottom = g.tensor("d_bottom");
    const fw::TensorId d_emb = g.tensor("d_emb");
    const fw::TensorId top_grads = g.tensor("top_grads");
    const fw::TensorId bottom_grads = g.tensor("bottom_grads");
    const MlpConfig top = State::top_mlp(cfg);
    const MlpConfig bottom = State::bottom_mlp(cfg);
    g.add("dlrm::mlp_backward", top, {f.feats, f.logits},
          {d_feats, top_grads}, "top_mlp_backward");
    g.add("dlrm::interaction_backward", cfg, {d_feats, f.bottom, f.emb},
          {d_bottom, d_emb}, "interaction_backward");
    const fw::NodeId emb_bwd =
        g.add("fcc::embedding_a2a", cfg.emb, {d_emb}, {g.tensor("emb_grads")},
              "embedding_a2a_backward");
    // The bottom MLP's backward waits for the exchange. Run concurrently,
    // the sharded engine diverged from the serial one (on Table II's model
    // at 64 nodes, 4 shards ended the fused exchange 1.4 us later): a
    // compute step's duration depends on the device's active-WG count at
    // its start, and the engines order same-time events differently.
    const fw::NodeId bottom_bwd =
        g.add("dlrm::mlp_backward", bottom, {f.dense, d_bottom},
              {bottom_grads}, "bottom_mlp_backward");
    g.add_dep(bottom_bwd, emb_bwd);
    const fw::NodeId all_reduce =
        g.add("dlrm::grad_allreduce", top.params() + bottom.params(),
              {top_grads, bottom_grads}, {}, "grad_allreduce");
    g.add_dep(all_reduce, emb_bwd);  // no collective overlaps the PUTs
    st.train_executor = make_executor(session_, g, cfg_.backend);
  }
  return st.train_executor->run_to_completion();
}

}  // namespace fcc::dlrm
