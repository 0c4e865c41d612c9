// paper_ops: the paper's operator-level result. The default sweeps of
// Fig. 8 (1x4 embedding+A2A), Fig. 9 (GEMV+AllReduce), Fig. 10
// (GEMM+A2A), Fig. 12 (2x1 embedding+A2A over InfiniBand) and the MoE
// dispatch skew-4 row, each fused and bulk-synchronous, timing-only, one
// operator at a time on the serial engine. The engine, topology, put and
// fused-runtime layers do all the work; planning, serving and sharding none.
#include <cmath>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "framework/op_registry.h"
#include "fused/embedding_a2a.h"
#include "fused/gemm_a2a.h"
#include "fused/gemv_allreduce.h"
#include "fused/moe_dispatch.h"
#include "harness.h"
#include "shmem/sym_array.h"
#include "shmem/world.h"

namespace perf {
namespace {

using namespace fcc;

struct Point {
  std::string fig;  // paper figure the point belongs to, or "moe"
  std::string label;
  fw::OpSpec spec;
  gpu::Machine::Config machine;
};

gpu::Machine::Config nodes_x_gpus(int nodes, int gpus) {
  gpu::Machine::Config mc;
  mc.num_nodes = nodes;
  mc.gpus_per_node = gpus;
  return mc;
}

fw::OpSpec embedding(int pes, int batch, int tables) {
  fused::EmbeddingA2AConfig cfg;
  cfg.map.num_pes = pes;
  cfg.map.tables_per_pe = tables;
  cfg.map.global_batch = batch;
  cfg.map.dim = 256;
  cfg.map.vectors_per_slice = 32;
  cfg.pooling = 100;
  cfg.functional = false;
  return fw::make_spec("fcc::embedding_a2a", cfg);
}

fw::OpSpec gemv(int m, int k) {
  fused::GemvAllReduceConfig cfg;
  cfg.m = m;
  cfg.k_global = k;
  cfg.functional = false;
  return fw::make_spec("fcc::gemv_allreduce", cfg);
}

fw::OpSpec gemm(int rows, int d_model, int d_ff) {
  fused::GemmA2AConfig cfg;
  cfg.rows_per_origin = rows;
  cfg.d_model = d_model;
  cfg.d_ff = d_ff;
  cfg.functional = false;
  return fw::make_spec("fcc::gemm_a2a", cfg);
}

fw::OpSpec moe(int tokens, int d_model, int d_out, std::uint64_t seed) {
  fused::MoeDispatchConfig cfg;
  cfg.tokens_per_pe = tokens;
  cfg.d_model = d_model;
  cfg.d_out = d_out;
  cfg.hot_expert_factor = 4.0;
  cfg.routing_seed = seed;
  cfg.functional = false;
  return fw::make_spec("fcc::moe_dispatch", cfg);
}

/// The figure benches' default sweeps; smoke keeps each figure's smallest.
/// Figs. 8 and 12 sweep their batch sizes at the smallest default table
/// count: at a fixed batch, simulated time grows almost linearly in tables
/// and the reduction moves by at most 0.2 points across the default table
/// counts, while the larger counts took three quarters of a pass.
std::vector<Point> build_points(const Options& o) {
  std::vector<Point> pts;
  const auto add = [&](std::string fig, std::string label, fw::OpSpec spec,
                       gpu::Machine::Config mc) {
    pts.push_back(Point{std::move(fig), std::move(label), std::move(spec),
                        std::move(mc)});
  };
  const bool full = !o.smoke;
  constexpr int kTables = 64;
  for (const int batch : {512, 1024, 2048}) {
    add("fig08", std::to_string(batch) + "|" + std::to_string(kTables),
        embedding(4, batch, kTables), nodes_x_gpus(1, 4));
    if (!full) break;
  }
  const int fig09[][2] = {{8192, 8192},
                          {16384, 8192},
                          {16384, 16384},
                          {32768, 8192},
                          {65536, 8192}};
  for (const auto& [m, k] : fig09) {
    add("fig09", "M=" + std::to_string(m) + " K=" + std::to_string(k),
        gemv(m, k), nodes_x_gpus(1, 4));
    if (!full) break;
  }
  const int fig10[][3] = {{1024, 1024, 1024},
                          {1024, 2048, 1024},
                          {2048, 1024, 2048},
                          {2048, 2048, 1024},
                          {4096, 2048, 2048}};
  for (const auto& [r, dm, dff] : fig10) {
    add("fig10",
        "T=" + std::to_string(r) + " dM=" + std::to_string(dm) +
            " dF=" + std::to_string(dff),
        gemm(r, dm, dff), nodes_x_gpus(1, 4));
    if (!full) break;
  }
  for (const int batch : {256, 512, 1024, 2048}) {
    add("fig12", std::to_string(batch) + "|" + std::to_string(kTables),
        embedding(2, batch, kTables), nodes_x_gpus(2, 1));
    if (!full) break;
  }
  add("moe", "T=1024 dM=1024 dO=1024 skew=4",
      moe(full ? 1024 : 256, 1024, 1024, moe_routing_seed(o.seed)),
      nodes_x_gpus(1, 4));
  return pts;
}

/// Paper Sec. IV mean reductions (%), which the simulated means are
/// compared against.
const std::map<std::string, double>& paper_mean_reduction() {
  static const std::map<std::string, double> m = {
      {"fig08", 20.0}, {"fig09", 13.0}, {"fig10", 12.0}, {"fig12", 31.0}};
  return m;
}

/// One backend of one point: machine, world and operator built once and
/// re-run every pass.
struct Instance {
  std::unique_ptr<gpu::Machine> machine;
  std::unique_ptr<shmem::World> world;
  std::unique_ptr<fused::FusedOp> op;
};

// ---- functional fused == baseline checks (small instances) -------------

template <typename T>
bool close_enough(std::span<const T> a, std::span<const T> b,
                  std::size_t n) {
  if (a.size() < n || b.size() < n) return false;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::fabs(a[i] - b[i]) > 1e-3f) return false;
  }
  return true;
}

/// Runs `spec` functionally on a fresh 1x`pes` machine through the registry.
void run_functional(const fw::OpSpec& spec, int pes, fw::Backend backend,
                    Tracer& tracer) {
  gpu::Machine machine(nodes_x_gpus(1, pes));
  shmem::World world(machine);
  auto op = fw::OpRegistry::global().at(spec.name).make(world, spec, backend);
  auto span = tracer.span("fused", std::string("functional ") + op->name());
  op->run_to_completion();
}

bool embedding_matches(Tracer& tracer) {
  fused::EmbeddingA2AConfig cfg;
  cfg.map.num_pes = 4;
  cfg.map.tables_per_pe = 2;
  cfg.map.global_batch = 32;
  cfg.map.dim = 8;
  cfg.map.vectors_per_slice = 2;
  cfg.pooling = 4;
  cfg.rows_per_table = 64;
  cfg.functional = true;
  shmem::SymArray<float> out_f(4, cfg.map.dest_elems());
  shmem::SymArray<float> out_b(4, cfg.map.dest_elems());
  auto data_f = fused::EmbeddingA2AData::random(cfg, &out_f, 23);
  auto data_b = fused::EmbeddingA2AData::random(cfg, &out_b, 23);
  run_functional(fw::make_spec("fcc::embedding_a2a", cfg, &data_f), 4,
                 fw::Backend::kFused, tracer);
  run_functional(fw::make_spec("fcc::embedding_a2a", cfg, &data_b), 4,
                 fw::Backend::kBaseline, tracer);
  for (PeId pe = 0; pe < 4; ++pe) {
    if (!close_enough<float>(out_f.pe(pe), out_b.pe(pe),
                             cfg.map.dest_elems())) {
      return false;
    }
  }
  return true;
}

bool gemv_matches(Tracer& tracer) {
  fused::GemvAllReduceConfig cfg;
  cfg.m = 64;
  cfg.k_global = 128;
  cfg.tile_rows = 8;
  cfg.functional = true;
  shmem::SymArray<float> y_f(4, 64);
  shmem::SymArray<float> y_b(4, 64);
  auto data_f = fused::GemvAllReduceData::random(cfg, 4, &y_f, 31);
  auto data_b = fused::GemvAllReduceData::random(cfg, 4, &y_b, 31);
  run_functional(fw::make_spec("fcc::gemv_allreduce", cfg, &data_f), 4,
                 fw::Backend::kFused, tracer);
  run_functional(fw::make_spec("fcc::gemv_allreduce", cfg, &data_b), 4,
                 fw::Backend::kBaseline, tracer);
  for (PeId pe = 0; pe < 4; ++pe) {
    if (!close_enough<float>(y_f.pe(pe), y_b.pe(pe), 64)) return false;
  }
  return true;
}

bool gemm_matches(Tracer& tracer) {
  fused::GemmA2AConfig cfg;
  cfg.rows_per_origin = 8;
  cfg.d_model = 12;
  cfg.d_ff = 16;
  cfg.block_m = 4;
  cfg.block_n = 8;
  cfg.functional = true;
  shmem::SymArray<float> out_f(4, cfg.out_elems(4));
  shmem::SymArray<float> out_b(4, cfg.out_elems(4));
  auto data_f = fused::GemmA2AData::random(cfg, 4, &out_f, 71);
  auto data_b = fused::GemmA2AData::random(cfg, 4, &out_b, 71);
  run_functional(fw::make_spec("fcc::gemm_a2a", cfg, &data_f), 4,
                 fw::Backend::kFused, tracer);
  run_functional(fw::make_spec("fcc::gemm_a2a", cfg, &data_b), 4,
                 fw::Backend::kBaseline, tracer);
  for (PeId pe = 0; pe < 4; ++pe) {
    if (!close_enough<float>(out_f.pe(pe), out_b.pe(pe), cfg.out_elems(4))) {
      return false;
    }
  }
  return true;
}

bool moe_matches(std::uint64_t routing_seed, Tracer& tracer) {
  fused::MoeDispatchConfig cfg;
  cfg.tokens_per_pe = 24;
  cfg.d_model = 12;
  cfg.d_out = 20;
  cfg.block_m = 8;
  cfg.block_n = 16;
  cfg.hot_expert_factor = 4.0;
  cfg.routing_seed = routing_seed;
  cfg.functional = true;
  const auto layout =
      fused::DispatchLayout::build(fused::skewed_plans(cfg, 4), cfg.block_m);
  shmem::SymArray<float> recv_f(4, layout.recv_capacity(cfg.d_out));
  shmem::SymArray<float> recv_b(4, layout.recv_capacity(cfg.d_out));
  auto data_f = fused::MoeDispatchData::random(cfg, 4, &recv_f, 97);
  auto data_b = fused::MoeDispatchData::random(cfg, 4, &recv_b, 97);
  run_functional(fw::make_spec("fcc::moe_dispatch", cfg, &data_f), 4,
                 fw::Backend::kFused, tracer);
  run_functional(fw::make_spec("fcc::moe_dispatch", cfg, &data_b), 4,
                 fw::Backend::kBaseline, tracer);
  for (PeId e = 0; e < 4; ++e) {
    const auto real = static_cast<std::size_t>(
                          layout.recv_rows[static_cast<std::size_t>(e)]) *
                      static_cast<std::size_t>(cfg.d_out);
    if (!close_enough<float>(recv_f.pe(e), recv_b.pe(e), real)) return false;
  }
  return true;
}

class PaperOps final : public Workload {
 public:
  PaperOps(const Options& o, Tracer& t)
      : opts_(o), tracer_(t), points_(build_points(o)) {}

  void setup() override {
    instances_.clear();
    first_.clear();
    mismatches_ = 0;
    runs_ = 0;
    const fw::OpRegistry& registry = fw::OpRegistry::global();
    for (const Point& p : points_) {
      for (const fw::Backend b :
           {fw::Backend::kFused, fw::Backend::kBaseline}) {
        Instance in;
        {
          auto span = tracer_.span("gpu", "Machine::Machine");
          in.machine = std::make_unique<gpu::Machine>(p.machine);
        }
        {
          auto span = tracer_.span("shmem", "World::World");
          in.world = std::make_unique<shmem::World>(*in.machine);
        }
        {
          auto span = tracer_.span("framework", "OpRegistry::make");
          in.op = registry.at(p.spec.name).make(*in.world, p.spec, b);
        }
        instances_.push_back(std::move(in));
      }
    }
  }

  void pass() override {
    stats_ = {};
    puts_ = 0;
    std::vector<fused::OperatorResult> results;
    for (Instance& in : instances_) {
      const std::int64_t puts0 = in.world->puts_issued();
      fused::OperatorResult r;
      {
        auto span = tracer_.span(
            "fused", std::string("run_to_completion ") + in.op->name());
        r = in.op->run_to_completion();
      }
      stats_.add(in.machine->last_run_stats());
      puts_ += in.world->puts_issued() - puts0;
      results.push_back(relative(r));
    }
    if (first_.empty()) {
      first_ = results;
    } else {
      for (std::size_t i = 0; i < results.size(); ++i) {
        if (!(results[i] == first_[i])) ++mismatches_;
      }
    }
    runs_ += static_cast<std::int64_t>(results.size());
  }

  void verify(Verify& v) override {
    // Every timed pass after the first re-ran each operator on its warm
    // machine; each run must reproduce the first pass's result.
    v.count(runs_, 0);
    v.check(mismatches_ == 0,
            "paper_ops: " + std::to_string(mismatches_) +
                " repeated runs diverged from the first pass");
    for (std::size_t i = 0; i < first_.size(); ++i) {
      v.check(first_[i].duration() > 0,
              "paper_ops: zero-length run " + points_[i / 2].label);
    }
    v.check(embedding_matches(tracer_),
            "paper_ops: functional embedding_a2a fused != baseline");
    v.check(gemv_matches(tracer_),
            "paper_ops: functional gemv_allreduce fused != baseline");
    v.check(gemm_matches(tracer_),
            "paper_ops: functional gemm_a2a fused != baseline");
    v.check(moe_matches(moe_routing_seed(opts_.seed), tracer_),
            "paper_ops: functional moe_dispatch fused != baseline");
  }

  void end_to_end(Metrics& m) override {
    double fused_ns = 0;
    std::vector<double> ratios;
    for (std::size_t p = 0; p < points_.size(); ++p) {
      const double f = static_cast<double>(first_[2 * p].duration());
      const double b = static_cast<double>(first_[2 * p + 1].duration());
      fused_ns += f;
      ratios.push_back(f / b);
    }
    m.set("sim_us", fused_ns * 1e-3, "sim_us");
    m.set("sim_ratio", geomean(ratios), "ratio");
  }

  void layers(Metrics& m, double pass_wall_s) override {
    Occupancy occ;
    for (Instance& in : instances_) occ.add(*in.machine);
    engine_layers(m, stats_, pass_wall_s);
    occupancy_layers(m, occ);
    m.set("shmem.puts", static_cast<double>(puts_), "count");

    // Distance of each figure's simulated mean reduction from the paper's
    // quoted mean. The paper's means are the only reference the repository
    // holds: no hardware measurements, so the model is otherwise
    // unvalidated.
    std::map<std::string, std::vector<double>> reductions;
    for (std::size_t p = 0; p < points_.size(); ++p) {
      const double f = static_cast<double>(first_[2 * p].duration());
      const double b = static_cast<double>(first_[2 * p + 1].duration());
      reductions[points_[p].fig].push_back(100.0 * (1.0 - f / b));
    }
    for (const auto& [fig, paper] : paper_mean_reduction()) {
      const auto& r = reductions[fig];
      if (r.empty()) continue;
      double sum = 0;
      for (double x : r) sum += x;
      const double mean = sum / static_cast<double>(r.size());
      std::cout << fig << ": simulated mean reduction " << mean
                << "% vs paper " << paper << "% (model otherwise "
                << "unvalidated: no hardware measurements in the repo)\n";
      m.set("fused.paper_err_pts." + fig, std::fabs(mean - paper), "pts");
    }
  }

 private:
  const Options& opts_;
  Tracer& tracer_;
  std::vector<Point> points_;
  std::vector<Instance> instances_;        // [point * 2 + backend]
  std::vector<fused::OperatorResult> first_;  // first pass, relative
  std::int64_t mismatches_ = 0;
  std::int64_t runs_ = 0;
  std::int64_t puts_ = 0;
  RunStatsSum stats_;
};

}  // namespace

std::unique_ptr<Workload> make_paper_ops(const Options& o, Tracer& t) {
  return std::make_unique<PaperOps>(o, t);
}

}  // namespace perf
