// Ablation: AllReduce algorithm on fully connected GPUs.
//
// Sec. III-B picks the two-phase direct algorithm [32] for the fused
// GEMV+AllReduce because it has the fewest steps on a fully connected
// topology. This sweep compares direct vs ring in the ccl baseline across
// message sizes, and shows the end-to-end effect on the baseline operator.
#include "bench_common.h"
#include "ccl/communicator.h"
#include "fused/gemv_allreduce.h"
#include "shmem/world.h"
#include "sim/task.h"

namespace {

using namespace fcc;

sim::Task time_collective(sim::Engine&, ccl::Communicator& comm,
                          std::int64_t n, ccl::AllReduceAlgo algo,
                          TimeNs& out) {
  co_await comm.all_reduce(n, ccl::FloatBufs{}, algo);
  out = comm.last_duration();
}

TimeNs collective_time(std::int64_t n_elems, ccl::AllReduceAlgo algo) {
  gpu::Machine::Config mc;
  mc.num_nodes = 1;
  mc.gpus_per_node = 4;
  gpu::Machine machine(mc);
  std::vector<PeId> pes{0, 1, 2, 3};
  ccl::Communicator comm(machine, pes);
  TimeNs out = 0;
  time_collective(machine.engine(), comm, n_elems, algo, out);
  machine.engine().run();
  return out;
}

}  // namespace

int main() {
  AsciiTable t({"message", "two-phase direct (us)", "ring (us)",
                "direct/ring"});
  CsvWriter csv(fccbench::out_dir() + "/ablation_allreduce_algo.csv",
                {"elems", "direct_ns", "ring_ns"});
  for (std::int64_t n : {1 << 10, 1 << 14, 1 << 18, 1 << 22, 1 << 24}) {
    const TimeNs d = collective_time(n, ccl::AllReduceAlgo::kTwoPhaseDirect);
    const TimeNs r = collective_time(n, ccl::AllReduceAlgo::kRing);
    t.add_row({std::to_string(n * 4 / 1024) + " KB",
               AsciiTable::fmt(ns_to_us(d), 1), AsciiTable::fmt(ns_to_us(r), 1),
               AsciiTable::fmt(static_cast<double>(d) / r, 3)});
    csv.row(n, d, r);
  }
  std::cout << "Ablation — AllReduce algorithm (4 fully connected GPUs)\n";
  t.print(std::cout);

  // End-to-end: baseline GEMV+AllReduce with each algorithm.
  auto baseline_with = [&](ccl::AllReduceAlgo algo) {
    fused::GemvAllReduceConfig cfg;
    cfg.m = 16384;
    cfg.k_global = 8192;
    cfg.functional = false;
    cfg.allreduce_algo = algo;
    gpu::Machine::Config mc;
    mc.num_nodes = 1;
    mc.gpus_per_node = 4;
    gpu::Machine machine(mc);
    shmem::World world(machine);
    return fused::BaselineGemvAllReduce(world, cfg, nullptr)
        .run_to_completion()
        .duration();
  };
  const TimeNs e2e_direct = baseline_with(ccl::AllReduceAlgo::kTwoPhaseDirect);
  const TimeNs e2e_ring = baseline_with(ccl::AllReduceAlgo::kRing);
  std::cout << "baseline GEMV+AllReduce (M=16k): direct "
            << AsciiTable::fmt(ns_to_us(e2e_direct), 1) << " us vs ring "
            << AsciiTable::fmt(ns_to_us(e2e_ring), 1) << " us\n";
  return 0;
}
