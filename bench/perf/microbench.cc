// Layer microbenchmarks of the traced run: host cost per call of one public
// entry point per layer, each the median of several repetitions, inside a
// span of its layer. They are workload-independent and single-threaded.
#include <string>
#include <vector>

#include "ccl/communicator.h"
#include "common/rng.h"
#include "common/stats.h"
#include "framework/fingerprint.h"
#include "framework/graph.h"
#include "framework/op_registry.h"
#include "framework/session.h"
#include "fused/op_runtime.h"
#include "gpu/machine.h"
#include "harness.h"
#include "serve/batcher.h"
#include "shmem/world.h"
#include "sim/engine.h"
#include "sim/task.h"

namespace perf {
namespace {

using namespace fcc;

constexpr int kReps = 5;

/// Median over kReps of (wall of one `body()` call) / `items`, in ns.
template <typename F>
double ns_per_item(std::int64_t items, F&& body) {
  std::vector<double> xs;
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = Clock::now();
    body();
    xs.push_back(seconds_since(t0) * 1e9 / static_cast<double>(items));
  }
  return median(xs);
}

sim::Task delay_chain(sim::Engine& e, std::int64_t hops) {
  for (std::int64_t i = 0; i < hops; ++i) co_await sim::delay(e, 1);
}

void bench_engine(std::int64_t n, Tracer& t, Metrics& m) {
  auto span = t.span("sim", "Engine::schedule_at+run");
  std::int64_t sink = 0;
  m.set("sim.schedule_run_ns", ns_per_item(n, [&] {
          sim::Engine e;
          for (std::int64_t i = 0; i < n; ++i) {
            e.schedule_at(i, [&sink] { ++sink; });
          }
          e.run();
        }),
        "ns");
  m.set("sim.resume_ns", ns_per_item(n, [&] {
          sim::Engine e;
          delay_chain(e, n);
          e.run();
        }),
        "ns");
  FCC_CHECK(sink == n * kReps);
}

/// Topology::write_time over inter-node (src, dst) pairs of each fabric.
void bench_write_time(std::int64_t n, Tracer& t, Metrics& m) {
  const auto machine_for = [](hw::TopologySpec::Kind kind) {
    gpu::Machine::Config mc;
    mc.num_nodes = 4;
    mc.gpus_per_node = 2;
    mc.topology.kind = kind;
    if (kind == hw::TopologySpec::Kind::kTorus2D) {
      mc.gpus_per_node = 1;
      mc.topology.torus.dim_x = 2;
      mc.topology.torus.dim_y = 2;
    }
    return mc;
  };
  const std::pair<const char*, hw::TopologySpec::Kind> fabrics[] = {
      {"fc", hw::TopologySpec::Kind::kFullyConnected},
      {"switched", hw::TopologySpec::Kind::kSwitchedNode},
      {"multirail", hw::TopologySpec::Kind::kMultiRail},
      {"torus", hw::TopologySpec::Kind::kTorus2D},
  };
  for (const auto& [name, kind] : fabrics) {
    auto span = t.span("hw", std::string("Topology::write_time ") + name);
    gpu::Machine machine(machine_for(kind));
    hw::Topology& topo = machine.topology();
    const int pes = machine.num_pes();
    TimeNs ready = 0;
    m.set(std::string("hw.write_time_ns.") + name, ns_per_item(n, [&] {
            for (std::int64_t i = 0; i < n; ++i) {
              const PeId src = static_cast<PeId>(i % pes);
              const PeId dst = (src + pes / 2) % pes;  // another node
              ready = topo.write_time(src, dst, 4096, ready);
            }
          }),
          "ns");
  }
}

sim::Task put_stream(sim::Engine&, shmem::World& w, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    co_await w.put_nbi(0, 1, 4096, shmem::World::IssueKind::kStore);
  }
  co_await w.quiet(0);
}

void bench_puts(std::int64_t n, Tracer& t, Metrics& m) {
  auto span = t.span("shmem", "World::put_nbi");
  gpu::Machine machine(fw::smoke_machine_config());
  shmem::World world(machine);
  m.set("shmem.put_ns", ns_per_item(n, [&] {
          put_stream(machine.engine(), world, n);
          machine.run_all();
        }),
        "ns");
}

sim::Task allreduce(sim::Engine& e, ccl::Communicator& c, std::int64_t elems,
                    ccl::AllReduceAlgo algo, TimeNs& done) {
  co_await c.all_reduce(elems, ccl::FloatBufs{}, algo);
  done = e.now();
}

/// Timing-only 4 MiB AllReduce on 2 nodes x 4 GPUs, per algorithm.
void bench_ccl(Tracer& t, Metrics& m) {
  gpu::Machine::Config mc;
  mc.num_nodes = 2;
  mc.gpus_per_node = 4;
  gpu::Machine machine(mc);
  ccl::Communicator comm(machine, fused::all_pes(machine));
  const std::pair<const char*, ccl::AllReduceAlgo> algos[] = {
      {"direct", ccl::AllReduceAlgo::kTwoPhaseDirect},
      {"ring", ccl::AllReduceAlgo::kRing},
      {"hierarchical", ccl::AllReduceAlgo::kHierarchical},
  };
  for (const auto& [name, algo] : algos) {
    auto span = t.span("ccl", std::string("Communicator::all_reduce ") + name);
    TimeNs start = 0, done = 0;
    const double ns = ns_per_item(1, [&] {
      start = machine.engine().now();
      allreduce(machine.engine(), comm, 1 << 20, algo, done);
      machine.run_all();
    });
    m.set(std::string("ccl.allreduce_host_us.") + name, ns * 1e-3, "us");
    m.set(std::string("ccl.allreduce_sim_us.") + name,
          static_cast<double>(done - start) * 1e-3, "sim_us");
  }
}

/// Every registered operator's smoke spec, warm, per backend.
void bench_fused(Tracer& t, Metrics& m) {
  const fw::OpRegistry& registry = fw::OpRegistry::global();
  for (const char* op : {"embedding_a2a", "gemv_allreduce", "gemm_a2a",
                         "moe_dispatch"}) {
    const fw::OpEntry& entry = registry.at(std::string("fcc::") + op);
    const fw::OpSpec spec = entry.smoke_spec();
    for (const auto& [bname, backend] :
         {std::pair{"fused", fw::Backend::kFused},
          std::pair{"baseline", fw::Backend::kBaseline}}) {
      gpu::Machine machine(fw::smoke_machine_config());
      shmem::World world(machine);
      auto instance = entry.make(world, spec, backend);
      fused::OperatorResult r = instance->run_to_completion();  // warm
      auto span = t.span("fused", std::string("run_to_completion ") +
                                      instance->name());
      const double ns =
          ns_per_item(1, [&] { r = instance->run_to_completion(); });
      const std::string key = std::string(op) + "." + bname;
      m.set("fused.run_host_ms." + key, ns * 1e-6, "ms");
      m.set("fused.sim_us." + key, static_cast<double>(r.duration()) * 1e-3,
            "sim_us");
    }
  }
}

void bench_framework(Tracer& t, Metrics& m) {
  const fw::OpRegistry& registry = fw::OpRegistry::global();
  fw::Graph chain;
  fw::TensorId prev{};
  int i = 0;
  for (const std::string& name : registry.names()) {
    const fw::OpEntry& entry = registry.at(name);
    if (!entry.smoke_spec) continue;
    auto out = chain.tensor("t" + std::to_string(i));
    std::vector<fw::TensorId> inputs;
    if (i > 0) inputs.push_back(prev);
    chain.add(entry.smoke_spec(), inputs, {out}, name);
    prev = out;
    ++i;
  }
  {
    auto span = t.span("framework", "graph_fingerprint");
    std::size_t sink = 0;
    m.set("framework.fingerprint_us", 1e-3 * ns_per_item(1, [&] {
            sink += fw::graph_fingerprint(chain, registry).key.size();
          }),
          "us");
    FCC_CHECK(sink > 0);
  }

  // Graph execution minus the same operator run directly: planning the
  // fuse-patterns pass, building the op, and the executor's node process.
  const fw::OpSpec spec = registry.at("fcc::gemv_allreduce").smoke_spec();
  fw::Graph one;
  const fw::TensorId y = one.tensor("y");
  one.add(spec, {}, {y}, "gemv");
  fw::Session session(fw::smoke_machine_config());
  double graph_ns = 0, direct_ns = 0;
  {
    auto span = t.span("framework", "Session::run graph");
    session.run(one);  // warm
    graph_ns = ns_per_item(1, [&] { session.run(one); });
  }
  {
    auto span = t.span("fused", "run_to_completion direct");
    auto op = registry.at(spec.name).make(session.world(), spec,
                                          fw::Backend::kFused);
    op->run_to_completion();  // warm
    direct_ns = ns_per_item(1, [&] { op->run_to_completion(); });
  }
  m.set("framework.exec_overhead_us", (graph_ns - direct_ns) * 1e-3, "us");
}

void bench_batcher(std::int64_t n, Tracer& t, Metrics& m) {
  auto span = t.span("serve", "Batcher::enqueue+poll");
  std::int64_t served = 0;
  m.set("serve.batcher_step_ns", ns_per_item(n, [&] {
          serve::Batcher b({0, 1, 0}, serve::BatchPolicy{});
          for (std::int64_t i = 0; i < n; ++i) {
            const TimeNs now = i * 300;
            b.enqueue(serve::Request{static_cast<int>(i),
                                     static_cast<int>(i % 3), now});
            if (auto batch = b.poll(now)) {
              served += static_cast<std::int64_t>(batch->reqs.size());
            }
          }
        }),
        "ns");
  FCC_CHECK(served > 0);
}

void bench_sketch(std::int64_t n, Tracer& t, Metrics& m) {
  auto span = t.span("common", "PercentileSketch::add");
  std::vector<std::int64_t> values;
  Rng rng(7);
  for (std::int64_t i = 0; i < n; ++i) {
    values.push_back(static_cast<std::int64_t>(rng.next_u64() % 10'000'000));
  }
  std::int64_t count = 0;
  m.set("common.sketch_add_ns", ns_per_item(n, [&] {
          PercentileSketch s;
          for (const std::int64_t v : values) s.add(v);
          count += s.count();
        }),
        "ns");
  FCC_CHECK(count == n * kReps);
}

}  // namespace

void run_microbenches(const Options& o, Tracer& t, Metrics& m) {
  const std::int64_t n = o.smoke ? 1 << 12 : 1 << 16;
  bench_engine(n, t, m);
  bench_write_time(n, t, m);
  bench_puts(n / 16, t, m);
  bench_ccl(t, m);
  bench_fused(t, m);
  bench_framework(t, m);
  bench_batcher(n, t, m);
  bench_sketch(n, t, m);
}

}  // namespace perf
