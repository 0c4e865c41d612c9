// Ablation: split-kernel overlap (Wang et al. [58]-style decomposition) vs
// intra-kernel fusion.
//
// The related-work alternative splits the producer kernel into S chunks and
// overlaps chunk i's collective with chunk i+1's compute using streams.
// Each chunk pays a kernel boundary and a library-collective latency floor,
// so the approach wins only while chunks stay large — exactly the paper's
// argument (Sec. V) for why fusion beats decomposition on small kernels.
#include "bench_common.h"
#include "fused/embedding_a2a.h"
#include "shmem/world.h"
#include "sim/task.h"

namespace {

using namespace fcc;

constexpr int kTables = 64;
constexpr int kBatch = 1024;

fused::EmbeddingA2AConfig base_config() {
  fused::EmbeddingA2AConfig cfg;
  cfg.map.num_pes = 2;
  cfg.map.tables_per_pe = kTables;
  cfg.map.global_batch = kBatch;
  cfg.map.dim = 256;
  cfg.map.vectors_per_slice = 32;
  cfg.pooling = 64;
  cfg.functional = false;
  return cfg;
}

/// Split-kernel schedule: tables are grouped into S chunks; chunk i's
/// per-table kernels run on the compute stream, then its A2A share runs
/// while chunk i+1 computes.
struct SplitRunner {
  gpu::Machine& machine;
  shmem::World& world;
  int splits;
  TimeNs total = 0;

  /// A per-table pooling kernel on one PE: a compute step per sample.
  struct Kernel : gpu::KernelRun {
    Kernel(gpu::Device& dev, const gpu::WorkCost& cost, Params params)
        : KernelRun(dev, params), cost(cost) {}
    const gpu::WorkCost& cost;
  };

  /// A slot's steps: claim a sample and start its step; end it.
  static void claim(gpu::KernelRun::Slot& s) {
    Kernel& k = static_cast<Kernel&>(*s.run);
    if (k.next(s) < 0) {
      k.finish(s);
      return;
    }
    k.device().start_step(k.cost, s, &computed);
  }
  static void computed(sim::Call* c) {
    auto& s = static_cast<gpu::KernelRun::Slot&>(*c);
    static_cast<Kernel&>(*s.run).device().end_step();
    claim(s);
  }

  sim::Co chunk_kernels(PeId pe, int tables_in_chunk) {
    const auto cfg = base_config();
    const gpu::WorkCost cost = ops::embedding_wg_cost(
        cfg.pooling, cfg.map.dim, true, ops::kBaselineCurve);
    gpu::Device& dev = machine.device(pe);
    for (int t = 0; t < tables_in_chunk; ++t) {
      Kernel k(dev, cost,
               {.num_slots = gpu::max_active_wgs(dev.spec(),
                                                 gpu::KernelResources{}),
                .num_wgs = cfg.map.global_batch});  // position = sample
      k.start(&claim);
      co_await k.wait();
    }
  }

  sim::Task go(sim::Engine& engine, bool& done) {
    const auto cfg = base_config();
    ccl::Communicator comm(machine, {0, 1});
    const int chunk_tables = kTables / splits;
    const std::int64_t chunk_elems =
        static_cast<std::int64_t>(chunk_tables) * cfg.map.local_batch() *
        cfg.map.dim;

    // Per-PE compute streams advance chunk by chunk; the collective for
    // chunk i runs concurrently with chunk i+1's kernels.
    sim::JoinCounter all_comms(engine, splits);
    for (int sidx = 0; sidx < splits; ++sidx) {
      // Compute chunk on both PEs.
      sim::JoinCounter chunk_done(engine, 2);
      struct PeChunk {
        static sim::Task go(sim::Engine& e, SplitRunner& r, PeId pe,
                            int tables, sim::JoinCounter& done) {
          co_await sim::delay(e, r.machine.device(pe).spec().kernel_launch_ns);
          co_await r.chunk_kernels(pe, tables);
          done.arrive();
        }
      };
      PeChunk::go(engine, *this, 0, chunk_tables, chunk_done);
      PeChunk::go(engine, *this, 1, chunk_tables, chunk_done);
      co_await chunk_done.wait();
      // Kick this chunk's A2A asynchronously (second stream).
      struct ChunkComm {
        static sim::Task go(sim::Engine&, ccl::Communicator& c,
                            std::int64_t elems, sim::JoinCounter& done) {
          co_await c.all_to_all(elems, ccl::FloatBufs{}, ccl::FloatBufs{});
          done.arrive();
        }
      };
      ChunkComm::go(engine, comm, chunk_elems, all_comms);
    }
    co_await all_comms.wait();
    total = engine.now();
    done = true;
  }
};

TimeNs run_split(int splits) {
  gpu::Machine::Config mc;
  mc.num_nodes = 2;
  mc.gpus_per_node = 1;
  gpu::Machine machine(mc);
  shmem::World world(machine);
  SplitRunner runner{machine, world, splits};
  bool done = false;
  runner.go(machine.engine(), done);
  machine.engine().run();
  FCC_CHECK(done && machine.engine().live_tasks() == 0);
  return runner.total;
}

}  // namespace

int main() {
  // Reference points: bulk-synchronous baseline and the fused kernel.
  const auto cfg = base_config();
  gpu::Machine::Config mc;
  mc.num_nodes = 2;
  mc.gpus_per_node = 1;

  TimeNs bulk = 0, fused_t = 0;
  {
    gpu::Machine m(mc);
    shmem::World w(m);
    bulk = fused::BaselineEmbeddingAllToAll(w, cfg, nullptr)
               .run_to_completion()
               .duration();
  }
  {
    gpu::Machine m(mc);
    shmem::World w(m);
    fused_t = fused::FusedEmbeddingAllToAll(w, cfg, nullptr)
                  .run_to_completion()
                  .duration();
  }

  AsciiTable t({"schedule", "exec (us)", "vs bulk baseline"});
  CsvWriter csv(fccbench::out_dir() + "/ablation_split_kernel.csv",
                {"schedule", "exec_ns"});
  t.add_row({"bulk-synchronous", AsciiTable::fmt(ns_to_us(bulk), 1), "1.000"});
  csv.row("bulk", bulk);
  for (int s : {2, 4, 8, 16, 32}) {
    const TimeNs dur = run_split(s);
    t.add_row({"split x" + std::to_string(s),
               AsciiTable::fmt(ns_to_us(dur), 1),
               AsciiTable::fmt(static_cast<double>(dur) / bulk, 3)});
    csv.row("split_x" + std::to_string(s), dur);
  }
  t.add_row({"fused (intra-kernel)", AsciiTable::fmt(ns_to_us(fused_t), 1),
             AsciiTable::fmt(static_cast<double>(fused_t) / bulk, 3)});
  csv.row("fused", fused_t);

  std::cout << "Ablation — split-kernel overlap [58] vs intra-kernel fusion "
               "(2 nodes, batch 1024, 64 tables)\n";
  t.print(std::cout);
  std::cout << "finer splits pay per-chunk kernel boundaries and collective "
               "latency floors; fusion does not\n";
  return 0;
}
