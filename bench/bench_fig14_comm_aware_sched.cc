// Fig. 14: impact of communication-aware WG scheduling on per-node
// execution time (2 nodes, fused embedding + All-to-All).
//
// Paper result: communication-oblivious scheduling leaves ~7% execution
// skew between the nodes (node 1 waits on node 0's late remote slices);
// communication-aware scheduling cuts the skew to ~1%.
#include "bench_common.h"
#include "fused/embedding_a2a.h"
#include "shmem/world.h"
#include "sweep_runner.h"

namespace {

using namespace fcc;

fused::OperatorResult run(gpu::SchedulePolicy policy) {
  fused::EmbeddingA2AConfig cfg;
  cfg.map.num_pes = 2;
  cfg.map.tables_per_pe = 128;
  cfg.map.global_batch = 1024;
  cfg.map.dim = 256;
  cfg.map.vectors_per_slice = 32;
  cfg.pooling = 70;  // Table II average pooling factor
  cfg.functional = false;
  cfg.policy = policy;

  gpu::Machine::Config mc;
  mc.num_nodes = 2;
  mc.gpus_per_node = 1;
  gpu::Machine machine(mc);
  shmem::World world(machine);
  return fused::FusedEmbeddingAllToAll(world, cfg, nullptr)
      .run_to_completion();
}

}  // namespace

int main() {
  const auto results = fccbench::run_sweep<fused::OperatorResult>(2, [](int i) {
    return run(i == 0 ? gpu::SchedulePolicy::kCommAware
                      : gpu::SchedulePolicy::kOblivious);
  });
  const auto& aware = results[0];
  const auto& oblivious = results[1];

  AsciiTable t({"scheduling", "node0 (us)", "node1 (us)", "skew %",
                "total (us)"});
  CsvWriter csv(fccbench::out_dir() + "/fig14_comm_aware_sched.csv",
                {"policy", "node0_ns", "node1_ns", "skew", "total_ns"});
  for (const auto* pair :
       {&oblivious, &aware}) {
    const bool is_aware = (pair == &aware);
    const auto& r = *pair;
    t.add_row({is_aware ? "comm-aware" : "oblivious",
               AsciiTable::fmt(ns_to_us(r.pe_end[0] - r.start), 1),
               AsciiTable::fmt(ns_to_us(r.pe_end[1] - r.start), 1),
               AsciiTable::fmt(100.0 * r.skew(), 2),
               AsciiTable::fmt(ns_to_us(r.duration()), 1)});
    csv.row(is_aware ? "comm-aware" : "oblivious", r.pe_end[0] - r.start,
            r.pe_end[1] - r.start, r.skew(), r.duration());
  }
  std::cout << "Fig. 14 — communication-aware WG scheduling "
               "(2 nodes, batch 1024, 128 tables/GPU)\n";
  t.print(std::cout);
  std::cout << "paper: oblivious ~7% skew, comm-aware ~1% skew\n";
  return 0;
}
