// Hierarchy-aware collectives: kAuto's priced choice of algorithm and the
// staged AllReduce (intra-node RS -> inter-node ring -> intra-node AG).
#include <gtest/gtest.h>

#include <string>
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

/// Finish time of one AllReduce on a fresh machine, over `members` (every
/// PE when empty).
TimeNs time_allreduce(int nodes, int gpus, std::int64_t n_elems,
                      AllReduceAlgo algo, std::vector<PeId> members = {}) {
  gpu::Machine m(nodes_by_gpus(nodes, gpus));
  Communicator comm(m, members.empty() ? all_pes(m) : members);
  TimeNs done = 0;
  run_all_reduce(m.engine(), comm, n_elems, FloatBufs{}, algo, done);
  m.engine().run();
  return done;
}

TEST(AutoSelect, PicksTheFastestAlgorithmForTheSpanAndSize) {
  struct Span {
    int nodes, gpus;
    std::vector<PeId> members;
  };
  const Span spans[] = {
      {1, 4, {}},
      {2, 1, {}},  // one GPU per node: nothing to stage
      {2, 4, {}},
      {2, 4, {0, 1, 2, 4}},  // non-uniform: hierarchical is ineligible
  };
  for (const Span& span : spans) {
    for (const std::int64_t n_elems : {1 << 10, 1 << 14, (1 << 18) + 11}) {
      SCOPED_TRACE(std::to_string(span.nodes) + "x" +
                   std::to_string(span.gpus) + " members " +
                   std::to_string(span.members.size()) + " n " +
                   std::to_string(n_elems));
      gpu::Machine m(nodes_by_gpus(span.nodes, span.gpus));
      Communicator comm(m, span.members.empty() ? all_pes(m) : span.members);
      // The fastest explicit algorithm, ties in kAuto's order.
      AllReduceAlgo fastest = AllReduceAlgo::kTwoPhaseDirect;
      TimeNs best = time_allreduce(span.nodes, span.gpus, n_elems, fastest,
                                   span.members);
      for (const AllReduceAlgo algo :
           {AllReduceAlgo::kRing, AllReduceAlgo::kHierarchical}) {
        if (algo == AllReduceAlgo::kHierarchical &&
            !comm.hierarchy_eligible()) {
          continue;
        }
        const TimeNs t =
            time_allreduce(span.nodes, span.gpus, n_elems, algo, span.members);
        if (t < best) {
          fastest = algo;
          best = t;
        }
      }
      EXPECT_EQ(comm.select_allreduce(n_elems), fastest);
      EXPECT_EQ(time_allreduce(span.nodes, span.gpus, n_elems,
                               AllReduceAlgo::kAuto, span.members),
                best);
    }
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

TEST(AutoAllReduce, FollowsTheMessageSizeOnSingleNode) {
  // One 4-GPU node: two-phase direct wins on small messages, the ring on
  // large ones, and kAuto follows.
  const std::int64_t small = 1 << 14;
  const TimeNs small_direct =
      time_allreduce(1, 4, small, AllReduceAlgo::kTwoPhaseDirect);
  EXPECT_LT(small_direct, time_allreduce(1, 4, small, AllReduceAlgo::kRing));
  EXPECT_EQ(time_allreduce(1, 4, small, AllReduceAlgo::kAuto), small_direct);

  const std::int64_t large = (1 << 18) + 123;
  const TimeNs large_ring = time_allreduce(1, 4, large, AllReduceAlgo::kRing);
  EXPECT_LT(large_ring,
            time_allreduce(1, 4, large, AllReduceAlgo::kTwoPhaseDirect));
  EXPECT_EQ(time_allreduce(1, 4, large, AllReduceAlgo::kAuto), large_ring);
}

}  // namespace
}  // namespace fcc::ccl
