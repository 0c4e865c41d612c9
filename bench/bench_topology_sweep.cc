// Topology sweep: the same collective workloads across interconnect
// fabrics (fully-connected vs switched vs multi-rail vs 2D torus), plus
// flat vs hierarchy-aware AllReduce on a multi-node machine.
//
// Every scenario runs through the one Machine/Topology/ccl stack — the
// point of the topology layer is that these are Config changes, not code
// forks. Expected shape of the results:
//   * All-to-All: the switched node tracks the fully-connected fabric
//     (same endpoint-port contention), the torus pays multi-hop
//     serialization + per-hop latency.
//   * AllReduce (2 nodes x 4 GPUs): hierarchical staging beats both flat
//     algorithms because the NICs carry 1/gpus_per_node of the traffic;
//     multi-rail NICs shrink the inter-node stage further.
//
// Exits nonzero unless every `auto` row equals the fastest explicit
// algorithm's row on its machine (same workload and topology).
#include <algorithm>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"
#include "ccl/communicator.h"
#include "gpu/machine.h"
#include "hw/topology.h"
#include "sim/task.h"
#include "sweep_runner.h"

namespace {

using namespace fcc;

std::vector<PeId> all_pes(gpu::Machine& m) {
  std::vector<PeId> v;
  for (int i = 0; i < m.num_pes(); ++i) v.push_back(i);
  return v;
}

sim::Task drive_a2a(ccl::Communicator& comm, std::int64_t chunk) {
  co_await comm.all_to_all(chunk, {}, {});
}

sim::Task drive_allreduce(ccl::Communicator& comm, std::int64_t n,
                          ccl::AllReduceAlgo algo) {
  co_await comm.all_reduce(n, {}, algo);
}

struct Scenario {
  std::string label;
  std::string topology;
  std::string collective;
  std::string algo;
  gpu::Machine::Config machine;
  std::int64_t elems = 0;
  ccl::AllReduceAlgo ar_algo = ccl::AllReduceAlgo::kAuto;
};

gpu::Machine::Config base(int nodes, int gpus) {
  gpu::Machine::Config c;
  c.num_nodes = nodes;
  c.gpus_per_node = gpus;
  return c;
}

std::vector<Scenario> scenarios() {
  const std::int64_t a2a_chunk = 1 << 16;   // 256 KB per rank pair
  const std::int64_t ar_elems = 1 << 20;    // 4 MB buffer

  std::vector<Scenario> s;

  // --- 8 PEs, one All-to-All, three fabrics ---
  s.push_back({"a2a_8pe", "fully_connected", "all_to_all", "pairwise",
               base(1, 8), a2a_chunk});
  {
    Scenario sw{"a2a_8pe", "switched", "all_to_all", "pairwise", base(1, 8),
                a2a_chunk};
    sw.machine.topology.kind = hw::TopologySpec::Kind::kSwitchedNode;
    s.push_back(sw);
  }
  {
    Scenario to{"a2a_8pe", "torus2d_4x2", "all_to_all", "pairwise",
                base(8, 1), a2a_chunk};
    to.machine.topology.kind = hw::TopologySpec::Kind::kTorus2D;
    to.machine.topology.torus.dim_x = 4;
    to.machine.topology.torus.dim_y = 2;
    s.push_back(to);
  }

  // --- 2 nodes x 4 GPUs, AllReduce: flat vs hierarchical ---
  for (auto [name, algo] :
       {std::pair{"flat_direct", ccl::AllReduceAlgo::kTwoPhaseDirect},
        std::pair{"flat_ring", ccl::AllReduceAlgo::kRing},
        std::pair{"hierarchical", ccl::AllReduceAlgo::kHierarchical},
        std::pair{"auto", ccl::AllReduceAlgo::kAuto}}) {
    Scenario ar{"allreduce_2x4", "fully_connected", "all_reduce", name,
                base(2, 4), ar_elems};
    ar.ar_algo = algo;
    s.push_back(ar);
  }

  // --- same AllReduce with 4 NIC rails per node ---
  {
    Scenario mr{"allreduce_2x4", "multi_rail_4", "all_reduce",
                "hierarchical", base(2, 4), ar_elems};
    mr.machine.topology.kind = hw::TopologySpec::Kind::kMultiRail;
    mr.machine.topology.nic_rails = 4;
    mr.ar_algo = ccl::AllReduceAlgo::kHierarchical;
    s.push_back(mr);
  }

  // --- 16-node torus AllReduce (DLRM-style scale-out, flat schedule
  //     routed over the rings vs the dimension-ordered flow) ---
  {
    Scenario to{"allreduce_torus16", "torus2d_4x4", "all_reduce",
                "flat_ring", base(16, 1), ar_elems};
    to.machine.topology.kind = hw::TopologySpec::Kind::kTorus2D;
    to.machine.topology.torus.dim_x = 4;
    to.machine.topology.torus.dim_y = 4;
    to.ar_algo = ccl::AllReduceAlgo::kRing;
    s.push_back(to);
  }
  return s;
}

TimeNs run_point(const Scenario& sc) {
  gpu::Machine m(sc.machine);
  ccl::Communicator comm(m, all_pes(m));
  if (sc.collective == "all_to_all") {
    drive_a2a(comm, sc.elems);
  } else {
    drive_allreduce(comm, sc.elems, sc.ar_algo);
  }
  m.engine().run();
  return comm.last_duration();
}

}  // namespace

int main() {
  const auto scs = scenarios();
  const auto times = fccbench::run_sweep<TimeNs>(
      static_cast<int>(scs.size()),
      [&](int i) { return run_point(scs[static_cast<std::size_t>(i)]); });

  AsciiTable t({"workload", "topology", "collective", "algo", "time (us)"});
  CsvWriter csv(fccbench::out_dir() + "/topology_sweep.csv",
                {"config", "topology", "collective", "algo", "time_ns"});
  for (std::size_t i = 0; i < scs.size(); ++i) {
    const auto& sc = scs[i];
    t.add_row({sc.label, sc.topology, sc.collective, sc.algo,
               AsciiTable::fmt(ns_to_us(times[i]), 1)});
    csv.row(sc.label, sc.topology, sc.collective, sc.algo, times[i]);
  }
  std::cout << "Topology sweep — one collective stack, pluggable fabrics\n";
  t.print(std::cout);

  // Headline: the hierarchy-aware win on the multi-node machine.
  TimeNs flat_ring = 0, hier = 0;
  for (std::size_t i = 0; i < scs.size(); ++i) {
    if (scs[i].label != "allreduce_2x4") continue;
    if (scs[i].algo == "flat_ring") flat_ring = times[i];
    if (scs[i].algo == "hierarchical" && scs[i].topology == "fully_connected")
      hier = times[i];
  }
  if (flat_ring > 0 && hier > 0) {
    std::cout << "hierarchical AllReduce vs flat ring (2 nodes x 4 GPUs): "
              << AsciiTable::fmt(static_cast<double>(flat_ring) /
                                     static_cast<double>(hier),
                                 2)
              << "x faster\n";
  }

  int status = 0;
  for (std::size_t i = 0; i < scs.size(); ++i) {
    if (scs[i].algo != "auto") continue;
    TimeNs fastest = std::numeric_limits<TimeNs>::max();
    for (std::size_t j = 0; j < scs.size(); ++j) {
      if (j != i && scs[j].label == scs[i].label &&
          scs[j].topology == scs[i].topology) {
        fastest = std::min(fastest, times[j]);
      }
    }
    if (times[i] != fastest) {
      std::cerr << "FAIL: " << scs[i].label << " on " << scs[i].topology
                << ": auto took " << times[i]
                << " ns, the fastest explicit algorithm " << fastest
                << " ns\n";
      status = 1;
    }
  }
  return status;
}
