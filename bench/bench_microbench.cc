// google-benchmark microbenchmarks of the simulator itself.
//
// The figure benches report *simulated* nanoseconds (deterministic); this
// binary measures the wall-clock cost of producing them — link arithmetic,
// end-to-end operator simulation rate, thread-pool dispatch — which is what
// bounds how large a sweep the harness can afford. Engine event-queue
// throughput is measured by bench/perf (sim.schedule_run_ns, sim.resume_ns).
#include <benchmark/benchmark.h>

#include <atomic>
#include <functional>

#include "bench_common.h"
#include "fused/embedding_a2a.h"
#include "fused/gemv_allreduce.h"
#include "gpu/machine.h"
#include "hw/link.h"
#include "parallel/thread_pool.h"
#include "scaleout/shard_workload.h"
#include "shmem/world.h"

namespace {

using namespace fcc;

void BM_LinkSubmit(benchmark::State& state) {
  hw::Link link("l", 80.0, 700);
  TimeNs t = 0;
  for (auto _ : state) {
    t = link.submit(t, 4096);
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LinkSubmit);

void BM_FusedEmbeddingSim(benchmark::State& state) {
  fused::EmbeddingA2AConfig cfg;
  cfg.map.num_pes = 2;
  cfg.map.tables_per_pe = static_cast<int>(state.range(0));
  cfg.map.global_batch = 512;
  cfg.map.dim = 256;
  cfg.map.vectors_per_slice = 32;
  cfg.pooling = 64;
  cfg.functional = false;
  for (auto _ : state) {
    gpu::Machine::Config mc;
    mc.num_nodes = 2;
    mc.gpus_per_node = 1;
    gpu::Machine m(mc);
    shmem::World w(m);
    auto r = fused::FusedEmbeddingAllToAll(w, cfg, nullptr)
                 .run_to_completion();
    benchmark::DoNotOptimize(r.end);
  }
  // Logical WGs simulated per wall second.
  state.SetItemsProcessed(state.iterations() * cfg.map.num_logical_wgs() *
                          cfg.map.num_pes);
}
BENCHMARK(BM_FusedEmbeddingSim)->Arg(16)->Arg(64);

void BM_FusedGemvSim(benchmark::State& state) {
  fused::GemvAllReduceConfig cfg;
  cfg.m = static_cast<int>(state.range(0));
  cfg.k_global = 8192;
  cfg.functional = false;
  for (auto _ : state) {
    gpu::Machine::Config mc;
    mc.num_nodes = 1;
    mc.gpus_per_node = 4;
    gpu::Machine m(mc);
    shmem::World w(m);
    auto r =
        fused::FusedGemvAllReduce(w, cfg, nullptr).run_to_completion();
    benchmark::DoNotOptimize(r.end);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FusedGemvSim)->Arg(8192)->Arg(32768);

/// Per-chunk submit(): one queued std::function and one lock round-trip
/// per chunk — the pre-batch parallel_for cost model.
void BM_ThreadPoolSubmitChunks(benchmark::State& state) {
  const int chunks = static_cast<int>(state.range(0));
  par::ThreadPool pool(2);
  for (auto _ : state) {
    std::atomic<std::int64_t> sink{0};
    for (int c = 0; c < chunks; ++c) {
      pool.submit(
          [&sink] { sink.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait_idle();
    benchmark::DoNotOptimize(sink.load());
  }
  state.SetItemsProcessed(state.iterations() * chunks);
}
BENCHMARK(BM_ThreadPoolSubmitChunks)->Arg(1 << 10)->Arg(1 << 13);

/// run_batch(): the same chunk count as ONE published descriptor claimed
/// via atomic fetch_add — what parallel_for rides now. The items/s gap
/// against BM_ThreadPoolSubmitChunks is the per-chunk allocation + lock
/// round-trip eliminated by the batch path.
void BM_ThreadPoolRunBatch(benchmark::State& state) {
  const int chunks = static_cast<int>(state.range(0));
  par::ThreadPool pool(2);
  std::atomic<std::int64_t> sink{0};
  const std::function<void(std::int64_t)> body = [&sink](std::int64_t) {
    sink.fetch_add(1, std::memory_order_relaxed);
  };
  for (auto _ : state) {
    pool.run_batch(0, chunks, body, /*grain=*/1);
    benchmark::DoNotOptimize(sink.load());
  }
  state.SetItemsProcessed(state.iterations() * chunks);
}
BENCHMARK(BM_ThreadPoolRunBatch)->Arg(1 << 10)->Arg(1 << 13);

/// End-to-end sharded-engine window protocol on a small torus: wall cost
/// of windows + barriers relative to the same workload serial is tracked
/// in full by bench_shard_scaling; this pins the small-machine overhead.
void BM_ShardedTorusWorkload(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  scaleout::ShardWorkloadConfig w;
  w.rounds = 4;
  w.lanes_per_pe = 2;
  for (auto _ : state) {
    gpu::Machine::Config mc;
    mc.num_nodes = 16;
    mc.gpus_per_node = 2;
    mc.topology.kind = hw::TopologySpec::Kind::kTorus2D;
    mc.topology.torus.dim_x = 4;
    mc.topology.torus.dim_y = 4;
    mc.num_shards = shards;
    gpu::Machine m(mc);
    const auto tr = scaleout::run_shard_workload(
        m, w, /*num_threads=*/1);
    benchmark::DoNotOptimize(tr.puts);
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_ShardedTorusWorkload)->Arg(1)->Arg(4);

/// Console reporter that also captures every run's throughput into
/// bench_results/host_perf.json (merged with the sweep benches' records),
/// giving the repo a machine-readable engine-speed trajectory across PRs.
class PerfJsonReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      const std::string section = "bench_microbench/" + run.benchmark_name();
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        perf_.set(section, "items_per_second", items->second);
      }
      if (run.iterations > 0) {
        perf_.set(section, "wall_ns_per_iteration",
                  run.real_accumulated_time * 1e9 /
                      static_cast<double>(run.iterations));
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

  void Finalize() override {
    const std::string path = fccbench::out_dir() + "/host_perf.json";
    fcc::PerfJson merged;
    merged.load(path);  // keep other benches' sections; absent file is fine
    merged.merge_from(perf_);
    merged.save(path);
    ConsoleReporter::Finalize();
  }

 private:
  fcc::PerfJson perf_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  PerfJsonReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
