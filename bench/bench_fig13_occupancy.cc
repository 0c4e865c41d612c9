// Fig. 13: impact of persistent-WG occupancy on fused-kernel execution
// time (global batch 1024, 256 tables/GPU, 2 nodes).
//
// Paper result: raising occupancy 25% -> 75% cuts execution time by 46%
// (more parallelism); 75% -> 87.5% RAISES it by 25% (the memory-intensive
// kernel hits HBM contention past the knee).
#include "bench_common.h"
#include "fused/embedding_a2a.h"
#include "shmem/world.h"
#include "sweep_runner.h"

int main() {
  using namespace fcc;

  const hw::GpuSpec spec;
  const int max_slots = spec.max_wg_slots();  // 832
  const double occupancies[] = {0.25, 0.50, 0.75, 0.875};

  const auto durations = fccbench::run_sweep<TimeNs>(4, [&](int i) {
    fused::EmbeddingA2AConfig cfg;
    cfg.map.num_pes = 2;
    cfg.map.tables_per_pe = 256;
    cfg.map.global_batch = 1024;
    cfg.map.dim = 256;
    cfg.map.vectors_per_slice = 32;
    cfg.pooling = 100;  // production-DLRM-class pooling factor
    cfg.functional = false;
    cfg.occupancy_slots_override =
        static_cast<int>(max_slots * occupancies[i]);
    gpu::Machine::Config mc;
    mc.num_nodes = 2;
    mc.gpus_per_node = 1;
    gpu::Machine machine(mc);
    shmem::World world(machine);
    return fused::FusedEmbeddingAllToAll(world, cfg, nullptr)
        .run_to_completion()
        .duration();
  });

  AsciiTable t({"occupancy", "persistent WGs", "exec time (us)",
                "vs 25% occupancy"});
  CsvWriter csv(fccbench::out_dir() + "/fig13_occupancy.csv",
                {"occupancy", "slots", "exec_ns"});
  const TimeNs t25 = durations[0], t75 = durations[2], t875 = durations[3];
  for (int i = 0; i < 4; ++i) {
    const double occ = occupancies[i];
    const int slots = static_cast<int>(max_slots * occ);
    const TimeNs dur = durations[static_cast<std::size_t>(i)];
    t.add_row({AsciiTable::fmt(100 * occ, 1) + "%", std::to_string(slots),
               AsciiTable::fmt(ns_to_us(dur), 1),
               AsciiTable::fmt(static_cast<double>(dur) / t25, 3)});
    csv.row(occ, slots, dur);
  }
  std::cout << "Fig. 13 — occupancy sweep, fused embedding+A2A "
               "(batch 1024, 256 tables/GPU)\n";
  t.print(std::cout);
  std::cout << "25% -> 75%: " << AsciiTable::fmt(100.0 * (1.0 - double(t75) / t25), 1)
            << "% faster (paper: 46%)\n"
            << "75% -> 87.5%: " << AsciiTable::fmt(100.0 * (double(t875) / t75 - 1.0), 1)
            << "% slower (paper: 25%)\n";
  return 0;
}
