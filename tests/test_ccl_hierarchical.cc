// Hierarchy-aware collectives: auto-selection from the topology and the
// staged AllReduce (intra-node RS -> inter-node ring -> intra-node AG).
#include <gtest/gtest.h>

#include <vector>

#include "ccl/communicator.h"
#include "common/rng.h"
#include "gpu/machine.h"
#include "sim/task.h"

namespace fcc::ccl {
namespace {

gpu::Machine::Config nodes_by_gpus(int nodes, int gpus) {
  gpu::Machine::Config c;
  c.num_nodes = nodes;
  c.gpus_per_node = gpus;
  return c;
}

std::vector<PeId> all_pes(gpu::Machine& m) {
  std::vector<PeId> v;
  for (int i = 0; i < m.num_pes(); ++i) v.push_back(i);
  return v;
}

FloatBufs make_bufs(std::vector<std::vector<float>>& storage) {
  FloatBufs b;
  for (auto& s : storage) b.per_rank.emplace_back(s);
  return b;
}

sim::Task run_all_reduce(sim::Engine& e, Communicator& comm,
                         std::int64_t n_elems, FloatBufs bufs,
                         AllReduceAlgo algo, TimeNs& done) {
  co_await comm.all_reduce(n_elems, bufs, algo);
  done = e.now();
}

TimeNs time_allreduce(int nodes, int gpus, std::int64_t n_elems,
                      AllReduceAlgo algo) {
  gpu::Machine m(nodes_by_gpus(nodes, gpus));
  Communicator comm(m, all_pes(m));
  TimeNs done = 0;
  run_all_reduce(m.engine(), comm, n_elems, FloatBufs{}, algo, done);
  m.engine().run();
  return done;
}

TEST(AutoSelect, KeysOffTheTopologySpan) {
  {
    gpu::Machine m(nodes_by_gpus(1, 4));
    Communicator comm(m, all_pes(m));
    EXPECT_EQ(comm.select_allreduce(), AllReduceAlgo::kTwoPhaseDirect);
  }
  {
    gpu::Machine m(nodes_by_gpus(2, 1));  // one GPU per node: nothing to stage
    Communicator comm(m, all_pes(m));
    EXPECT_EQ(comm.select_allreduce(), AllReduceAlgo::kTwoPhaseDirect);
  }
  {
    gpu::Machine m(nodes_by_gpus(2, 4));
    Communicator comm(m, all_pes(m));
    EXPECT_EQ(comm.select_allreduce(), AllReduceAlgo::kHierarchical);
  }
  {
    // Non-uniform span (3 members on node 0, 1 on node 1): stay flat.
    gpu::Machine m(nodes_by_gpus(2, 4));
    Communicator comm(m, {0, 1, 2, 4});
    EXPECT_EQ(comm.select_allreduce(), AllReduceAlgo::kTwoPhaseDirect);
  }
}

TEST(HierarchicalAllReduce, SumIsCorrectAcrossNodes) {
  gpu::Machine m(nodes_by_gpus(2, 4));
  Communicator comm(m, all_pes(m));
  const std::int64_t n = 128;
  std::vector<std::vector<float>> data(8);
  std::vector<float> expect(static_cast<size_t>(n), 0.0f);
  Rng rng(13);
  for (int r = 0; r < 8; ++r) {
    data[static_cast<size_t>(r)].resize(static_cast<size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      const auto v = static_cast<float>(rng.next_double(-1, 1));
      data[static_cast<size_t>(r)][static_cast<size_t>(i)] = v;
      expect[static_cast<size_t>(i)] += v;
    }
  }
  TimeNs done = 0;
  run_all_reduce(m.engine(), comm, n, make_bufs(data),
                 AllReduceAlgo::kHierarchical, done);
  m.engine().run();
  EXPECT_GT(done, 0);
  for (int r = 0; r < 8; ++r) {
    for (std::int64_t i = 0; i < n; ++i) {
      EXPECT_NEAR(data[static_cast<size_t>(r)][static_cast<size_t>(i)],
                  expect[static_cast<size_t>(i)], 1e-4);
    }
  }
}

TEST(HierarchicalAllReduce, BeatsFlatAlgorithmsAcrossNodes) {
  // Two 4-GPU nodes over one NIC each: staging through the node boundary
  // sends 1/gpus_per_node of the flat traffic across the slow links.
  const std::int64_t n_elems = 1 << 20;
  const TimeNs ring = time_allreduce(2, 4, n_elems, AllReduceAlgo::kRing);
  const TimeNs direct =
      time_allreduce(2, 4, n_elems, AllReduceAlgo::kTwoPhaseDirect);
  const TimeNs hier =
      time_allreduce(2, 4, n_elems, AllReduceAlgo::kHierarchical);
  const TimeNs autosel = time_allreduce(2, 4, n_elems, AllReduceAlgo::kAuto);
  EXPECT_LT(hier, ring);
  EXPECT_LT(hier, direct);
  EXPECT_EQ(autosel, hier);  // auto resolves to hierarchical here
}

TEST(HierarchicalAllReduce, FourNodesStillWin) {
  const std::int64_t n_elems = 1 << 20;
  const TimeNs ring = time_allreduce(4, 4, n_elems, AllReduceAlgo::kRing);
  const TimeNs hier =
      time_allreduce(4, 4, n_elems, AllReduceAlgo::kHierarchical);
  EXPECT_LT(hier, ring);
}

TEST(AutoAllReduce, MatchesFlatDirectOnSingleNode) {
  // On a single node auto must resolve to the historical default so
  // existing workloads keep their exact timings.
  const std::int64_t n_elems = 1 << 18;
  EXPECT_EQ(time_allreduce(1, 4, n_elems, AllReduceAlgo::kAuto),
            time_allreduce(1, 4, n_elems, AllReduceAlgo::kTwoPhaseDirect));
}

}  // namespace
}  // namespace fcc::ccl
