// torus_flagship: the Fig. 15 flagship operator, fused embedding+A2A on a
// 64-node 8x8 torus with one GPU per node, run by the sharded engine at 4
// shards. The only workload that exercises the sharded engine (windows,
// barriers, mailboxes) and the torus's deferred ring-link reservations; no
// collectives, no serving.
//
// The timed passes run the 4 shards on one host thread. On a shared 4-vCPU
// host, one run on 4 threads took 2.9-6.8 s from one minute to the next,
// and on 2 threads 3.0-6.1 s; on one thread it took 3.9-4.5 s. The
// engine's per-window breakdown still gives the time with one core per
// shard. The traced run also runs the shards on min(4, nproc) threads,
// checks that those runs reproduce the result, and reports the measured
// speedup.
#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "framework/op_registry.h"
#include "fused/embedding_a2a.h"
#include "gpu/machine.h"
#include "harness.h"
#include "shmem/world.h"

namespace perf {
namespace {

using namespace fcc;

constexpr int kShards = 4;
constexpr int kTracedRuns = 3;  // timed serial and threaded runs, traced run

class TorusFlagship final : public Workload {
 public:
  TorusFlagship(const Options& o, Tracer& t)
      : tracer_(t), trace_(o.trace), dim_(o.smoke ? 4 : 8) {}

  unsigned threads(unsigned nproc) const override {
    return trace_ ? std::min<unsigned>(kShards, nproc) : 1;
  }

  void setup() override {
    op_.reset();
    world_.reset();
    machine_.reset();
    {
      auto span = tracer_.span("gpu", "Machine::Machine");
      machine_ = std::make_unique<gpu::Machine>(machine_config(kShards));
    }
    {
      auto span = tracer_.span("shmem", "World::World");
      world_ = std::make_unique<shmem::World>(*machine_);
    }
    auto span = tracer_.span("framework", "OpRegistry::make");
    op_ = make_op(*world_, fw::Backend::kFused);
    mismatches_ = 0;
    runs_ = 0;
  }

  /// The first run on the fresh machine is the reference the serial engine
  /// must reproduce exactly; later runs restart at window-aligned times, so
  /// they are compared relative to their start.
  void warm_up() override { warm_ = run_timed(); }

  void pass() override {
    const auto t0 = Clock::now();
    const fused::OperatorResult r = run_timed();
    last_wall_s_ = seconds_since(t0);
    if (!(relative(r) == relative(warm_))) ++mismatches_;
    ++runs_;
  }

  void verify(Verify& v) override {
    v.count(runs_, 0);
    v.check(mismatches_ == 0,
            "torus_flagship: a repeated 4-shard run changed its result");

    gpu::Machine serial(machine_config(1));
    shmem::World world(serial);
    auto op = make_op(world, fw::Backend::kFused);
    fused::OperatorResult r;
    {
      auto span = tracer_.span("fused", "run_to_completion serial engine");
      r = op->run_to_completion();
    }
    v.check(r == warm_, "torus_flagship: 4-shard result != serial result");

    // The traced run times the serial engine and the threaded 4-shard
    // engine as the passes are timed: warm runs, median.
    if (trace_) {
      const unsigned threads = std::min<unsigned>(
          kShards, std::max(1u, std::thread::hardware_concurrency()));
      std::vector<double> serial_walls, threaded_walls;
      for (int i = 0; i < kTracedRuns; ++i) {
        auto t0 = Clock::now();
        {
          auto span = tracer_.span("fused", "run_to_completion serial engine");
          op->run_to_completion();
        }
        serial_walls.push_back(seconds_since(t0));
        t0 = Clock::now();
        const fused::OperatorResult t = run_sharded(threads);
        threaded_walls.push_back(seconds_since(t0));
        v.check(relative(t) == relative(warm_),
                "torus_flagship: a threaded 4-shard run changed its result");
      }
      serial_wall_s_ = median(serial_walls);
      threaded_wall_s_ = median(threaded_walls);
    }

    // Reference for sim_ratio: the bulk-synchronous baseline on the same
    // torus, serial engine.
    gpu::Machine base_machine(machine_config(1));
    shmem::World base_world(base_machine);
    auto base = make_op(base_world, fw::Backend::kBaseline);
    auto span = tracer_.span("fused", "run_to_completion baseline");
    baseline_ = base->run_to_completion();
    v.check(baseline_.duration() > 0, "torus_flagship: empty baseline run");
  }

  void end_to_end(Metrics& m) override {
    m.set("sim_us", static_cast<double>(warm_.duration()) * 1e-3, "sim_us");
    m.set("sim_ratio",
          static_cast<double>(warm_.duration()) /
              static_cast<double>(baseline_.duration()),
          "ratio");
  }

  void layers(Metrics& m, double pass_wall_s) override {
    Occupancy occ;
    occ.add(*machine_);
    engine_layers(m, stats_, pass_wall_s);
    occupancy_layers(m, occ);
    m.set("shmem.puts", static_cast<double>(puts_), "count");
    // Measured: the median warm serial run over the median threaded 4-shard
    // run on this host. Attainable: the 4 shards with one core each — the
    // one-thread pass's time outside the windows plus each window's
    // slowest shard (engine RunStats).
    const double window_s = static_cast<double>(stats_.window_wall_ns) * 1e-9;
    const double critical_s =
        static_cast<double>(stats_.critical_wall_ns) * 1e-9;
    const double attainable_s =
        std::max(0.0, last_wall_s_ - window_s) + critical_s;
    m.set("sim.speedup_measured",
          threaded_wall_s_ > 0 ? serial_wall_s_ / threaded_wall_s_ : 0, "x");
    m.set("sim.speedup_attainable",
          attainable_s > 0 ? serial_wall_s_ / attainable_s : 0, "x");
  }

 private:
  gpu::Machine::Config machine_config(int shards) const {
    gpu::Machine::Config mc;
    mc.num_nodes = dim_ * dim_;
    mc.gpus_per_node = 1;
    mc.topology.kind = hw::TopologySpec::Kind::kTorus2D;
    mc.topology.torus.dim_x = dim_;
    mc.topology.torus.dim_y = dim_;
    mc.num_shards = shards;
    return mc;
  }

  std::unique_ptr<fused::FusedOp> make_op(shmem::World& world,
                                          fw::Backend backend) const {
    fused::EmbeddingA2AConfig cfg;
    cfg.map.num_pes = dim_ * dim_;
    cfg.map.tables_per_pe = 8;
    cfg.map.global_batch = 64 * dim_ * dim_;
    cfg.map.dim = 256;
    cfg.map.vectors_per_slice = 32;
    cfg.functional = false;
    const fw::OpSpec spec = fw::make_spec("fcc::embedding_a2a", cfg);
    return fw::OpRegistry::global().at(spec.name).make(world, spec, backend);
  }

  /// One run of the 4-shard operator with the engine on `threads` host
  /// threads (run_to_completion picks the thread count itself).
  fused::OperatorResult run_sharded(unsigned threads) {
    auto span = tracer_.span("fused", "spawn+Machine::run_all " +
                                          std::to_string(threads) +
                                          " thread(s)");
    const auto& done = op_->spawn();
    machine_->run_all(threads);
    FCC_CHECK_MSG(done.is_set() && machine_->sharded().live_tasks() == 0,
                  "torus_flagship: the 4-shard run deadlocked");
    return op_->result();
  }

  fused::OperatorResult run_timed() {
    const std::int64_t puts0 = world_->puts_issued();
    const fused::OperatorResult r = run_sharded(1);
    stats_ = {};
    stats_.add(machine_->last_run_stats());
    puts_ = world_->puts_issued() - puts0;
    return r;
  }

  Tracer& tracer_;
  const bool trace_;
  const int dim_;
  std::unique_ptr<gpu::Machine> machine_;
  std::unique_ptr<shmem::World> world_;
  std::unique_ptr<fused::FusedOp> op_;
  fused::OperatorResult warm_;
  fused::OperatorResult baseline_;
  std::int64_t mismatches_ = 0;
  std::int64_t runs_ = 0;
  std::int64_t puts_ = 0;
  double last_wall_s_ = 0;
  double serial_wall_s_ = 0;
  double threaded_wall_s_ = 0;
  RunStatsSum stats_;
};

}  // namespace

std::unique_ptr<Workload> make_torus_flagship(const Options& o, Tracer& t) {
  return std::make_unique<TorusFlagship>(o, t);
}

}  // namespace perf
