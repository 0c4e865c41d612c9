// Baseline collectives: functional correctness + timing sanity.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "ccl/communicator.h"
#include "common/rng.h"
#include "gpu/machine.h"
#include "sim/task.h"

namespace fcc::ccl {
namespace {

gpu::Machine::Config four_gpus() {
  gpu::Machine::Config c;
  c.num_nodes = 1;
  c.gpus_per_node = 4;
  return c;
}

gpu::Machine::Config two_nodes() {
  gpu::Machine::Config c;
  c.num_nodes = 2;
  c.gpus_per_node = 1;
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

TEST(AllReduce, SumAcrossFourRanks) {
  for (auto algo : {AllReduceAlgo::kTwoPhaseDirect, AllReduceAlgo::kRing}) {
    gpu::Machine m(four_gpus());
    Communicator comm(m, all_pes(m));
    const std::int64_t n = 64;
    std::vector<std::vector<float>> data(4);
    std::vector<float> expect(static_cast<size_t>(n), 0.0f);
    Rng rng(7);
    for (int r = 0; r < 4; ++r) {
      data[static_cast<size_t>(r)].resize(static_cast<size_t>(n));
      for (std::int64_t i = 0; i < n; ++i) {
        const auto v = static_cast<float>(rng.next_double(-1, 1));
        data[static_cast<size_t>(r)][static_cast<size_t>(i)] = v;
        expect[static_cast<size_t>(i)] += v;
      }
    }
    TimeNs done = 0;
    run_all_reduce(m.engine(), comm, n, make_bufs(data), algo, done);
    m.engine().run();
    EXPECT_GT(done, 0);
    for (int r = 0; r < 4; ++r) {
      for (std::int64_t i = 0; i < n; ++i) {
        EXPECT_NEAR(data[static_cast<size_t>(r)][static_cast<size_t>(i)],
                    expect[static_cast<size_t>(i)], 1e-4);
      }
    }
  }
}

TEST(AllReduce, SingleRankIsFree) {
  gpu::Machine m(four_gpus());
  Communicator comm(m, {0});
  std::vector<std::vector<float>> data(1, std::vector<float>{1.f, 2.f});
  TimeNs done = 0;
  run_all_reduce(m.engine(), comm, 2, make_bufs(data),
                 AllReduceAlgo::kTwoPhaseDirect, done);
  m.engine().run();
  EXPECT_EQ(done, 0);
  EXPECT_EQ(data[0], (std::vector<float>{1.f, 2.f}));
}

TEST(AllReduce, DirectBeatsRingAtSmallSizesOnFullyConnected) {
  // The paper picks the two-phase direct algorithm for fully connected
  // GPUs [32]; the ring pays 2(N-1) latency hops.
  TimeNs t_direct = 0, t_ring = 0;
  {
    gpu::Machine m(four_gpus());
    Communicator comm(m, all_pes(m));
    run_all_reduce(m.engine(), comm, 16 * 1024, FloatBufs{},
                   AllReduceAlgo::kTwoPhaseDirect, t_direct);
    m.engine().run();
  }
  {
    gpu::Machine m(four_gpus());
    Communicator comm(m, all_pes(m));
    run_all_reduce(m.engine(), comm, 16 * 1024, FloatBufs{},
                   AllReduceAlgo::kRing, t_ring);
    m.engine().run();
  }
  EXPECT_LT(t_direct, t_ring);
}

sim::Task run_all_to_all(sim::Engine& e, Communicator& comm,
                         std::int64_t chunk, FloatBufs send, FloatBufs recv,
                         TimeNs& done) {
  co_await comm.all_to_all(chunk, std::move(send), std::move(recv));
  done = e.now();
}

TEST(AllToAll, PermutesChunksSourceMajor) {
  gpu::Machine m(four_gpus());
  Communicator comm(m, all_pes(m));
  const std::int64_t chunk = 8;
  std::vector<std::vector<float>> send(4), recv(4);
  for (int r = 0; r < 4; ++r) {
    send[static_cast<size_t>(r)].resize(static_cast<size_t>(4 * chunk));
    recv[static_cast<size_t>(r)].assign(static_cast<size_t>(4 * chunk), -1.f);
    for (int d = 0; d < 4; ++d) {
      for (int i = 0; i < chunk; ++i) {
        // Tag: source*100 + destination*10 + element
        send[static_cast<size_t>(r)][static_cast<size_t>(d * chunk + i)] =
            static_cast<float>(r * 100 + d * 10 + i % 10);
      }
    }
  }
  TimeNs done = 0;
  run_all_to_all(m.engine(), comm, chunk, make_bufs(send), make_bufs(recv),
                 done);
  m.engine().run();
  for (int d = 0; d < 4; ++d) {
    for (int s = 0; s < 4; ++s) {
      for (int i = 0; i < chunk; ++i) {
        EXPECT_FLOAT_EQ(
            recv[static_cast<size_t>(d)][static_cast<size_t>(s * chunk + i)],
            static_cast<float>(s * 100 + d * 10 + i % 10));
      }
    }
  }
  EXPECT_GT(done, 0);
}

TEST(AllToAll, InterNodeRidesNic) {
  gpu::Machine m(two_nodes());
  Communicator comm(m, all_pes(m));
  TimeNs done = 0;
  const std::int64_t chunk = 1 << 18;  // 1 MB chunks
  run_all_to_all(m.engine(), comm, chunk, FloatBufs{}, FloatBufs{}, done);
  m.engine().run();
  // One remote chunk each way: >= wire serialization of 1 MB at 20 B/ns.
  EXPECT_GE(done, static_cast<TimeNs>((chunk * 4) / 20.0));
  EXPECT_GT(m.nic(0).messages(), 0);
}

sim::Task run_all_to_all_v(sim::Engine& e, Communicator& comm,
                           std::vector<std::int64_t> counts, TimeNs& done) {
  co_await comm.all_to_all_v(counts, FloatBufs{}, FloatBufs{});
  done = e.now();
}

// An All-to-All that moves nothing posts no transfer: it costs the software
// overhead alone, whether the empty matrix comes as a zero chunk or as
// all_to_all_v's counts.
TEST(AllToAll, EmptyExchangeCostsOnlyTheSoftwareOverhead) {
  gpu::Machine::Config fc2x4 = four_gpus();
  fc2x4.num_nodes = 2;
  for (const gpu::Machine::Config& cfg : {four_gpus(), fc2x4}) {
    const int n = cfg.num_nodes * cfg.gpus_per_node;
    {
      gpu::Machine m(cfg);
      Communicator comm(m, all_pes(m));
      TimeNs done = -1;
      run_all_to_all(m.engine(), comm, 0, FloatBufs{}, FloatBufs{}, done);
      m.engine().run();
      EXPECT_EQ(done, Communicator::kSwOverheadNs) << n << " PEs";
      EXPECT_EQ(comm.last_duration(), Communicator::kSwOverheadNs);
    }
    {
      gpu::Machine m(cfg);
      Communicator comm(m, all_pes(m));
      TimeNs done = -1;
      run_all_to_all_v(m.engine(), comm,
                       std::vector<std::int64_t>(
                           static_cast<std::size_t>(n * n), 0),
                       done);
      m.engine().run();
      EXPECT_EQ(done, Communicator::kSwOverheadNs) << n << " PEs";
      EXPECT_EQ(comm.last_duration(), Communicator::kSwOverheadNs);
    }
  }
}

/// Expects `call` to throw std::logic_error whose message contains `what`.
/// Argument errors throw from the collective call itself, before any
/// coroutine frame exists, so they are catchable at the call site.
template <typename F>
void expect_error(F&& call, const std::string& what) {
  EXPECT_THROW(
      try {
        [[maybe_unused]] const auto never_used = call();
      } catch (const std::logic_error& e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << e.what();
        throw;
      },
      std::logic_error)
      << what;
}

// Every recv rank must hold N chunks, like every send rank.
TEST(AllToAll, UndersizedRecvBufferFailsTheCheck) {
  gpu::Machine m(four_gpus());
  Communicator comm(m, all_pes(m));
  const std::int64_t chunk = 8;
  std::vector<std::vector<float>> send(4, std::vector<float>(4 * chunk));
  std::vector<std::vector<float>> recv(4, std::vector<float>(4 * chunk));
  recv[3] = std::vector<float>(3 * chunk);  // one chunk short, exactly
  expect_error(
      [&] { return comm.all_to_all(chunk, make_bufs(send), make_bufs(recv)); },
      "all_to_all: recv.rank(3).size() must be >= 32, got 24");
}

TEST(ArgumentErrors, NegativeSizesNameTheArgument) {
  gpu::Machine m(four_gpus());
  Communicator comm(m, all_pes(m));
  expect_error([&] { return comm.all_reduce(-1, FloatBufs{}); },
               "all_reduce: n_elems must be >= 0, got -1");
  expect_error([&] { return comm.all_to_all(-8, FloatBufs{}, FloatBufs{}); },
               "all_to_all: chunk_elems must be >= 0, got -8");
  expect_error([&] { return comm.select_allreduce(-2); },
               "select_allreduce: n_elems must be >= 0, got -2");
  constexpr AllReduceAlgo kDirect[] = {AllReduceAlgo::kTwoPhaseDirect};
  expect_error(
      [&] {
        return Communicator::price_all_reduce(four_gpus(), -4096, kDirect);
      },
      "price_all_reduce: n_elems must be >= 0, got -4096");
}

TEST(ArgumentErrors, MalformedCountsNameTheEntry) {
  gpu::Machine m(four_gpus());
  Communicator comm(m, all_pes(m));
  const std::vector<std::int64_t> short_counts(15, 1);
  expect_error(
      [&] { return comm.all_to_all_v(short_counts, FloatBufs{}, FloatBufs{}); },
      "all_to_all_v: counts.size() must be 16, got 15");
  std::vector<std::int64_t> counts(16, 2);
  counts[5] = -3;
  expect_error(
      [&] { return comm.all_to_all_v(counts, FloatBufs{}, FloatBufs{}); },
      "all_to_all_v: counts[5] must be >= 0, got -3");
}

TEST(ArgumentErrors, BufferShapesAreChecked) {
  gpu::Machine m(four_gpus());
  Communicator comm(m, all_pes(m));
  std::vector<std::vector<float>> three(3, std::vector<float>(64));
  expect_error([&] { return comm.all_reduce(64, make_bufs(three)); },
               "all_reduce: bufs.per_rank.size() must be 4, got 3");
  std::vector<std::vector<float>> four(4, std::vector<float>(64));
  four[2].resize(63);
  expect_error([&] { return comm.all_reduce(64, make_bufs(four)); },
               "all_reduce: bufs.rank(2).size() must be >= 64, got 63");
  std::vector<std::vector<float>> send(4, std::vector<float>(4 * 8));
  expect_error([&] { return comm.all_to_all(8, make_bufs(send), FloatBufs{}); },
               "all_to_all: recv must be functional when send is");

  // all_to_all_v: rank s sends its row's total, rank d receives its
  // column's; counts[s * 4 + d] = s here, so rank 3 sends 12 and every
  // rank receives 0 + 1 + 2 + 3 = 6.
  std::vector<std::int64_t> counts;
  for (int s = 0; s < 4; ++s) counts.insert(counts.end(), 4, s);
  std::vector<std::vector<float>> vsend(4), vrecv(4, std::vector<float>(6));
  for (int s = 0; s < 4; ++s) vsend[s].resize(static_cast<std::size_t>(4 * s));
  vsend[3].resize(11);
  expect_error(
      [&] {
        return comm.all_to_all_v(counts, make_bufs(vsend), make_bufs(vrecv));
      },
      "all_to_all_v: send.rank(3).size() must be >= 12, got 11");
  vsend[3].resize(12);
  vrecv[1].resize(5);
  expect_error(
      [&] {
        return comm.all_to_all_v(counts, make_bufs(vsend), make_bufs(vrecv));
      },
      "all_to_all_v: recv.rank(1).size() must be >= 6, got 5");
}

TEST(ArgumentErrors, ForcedHierarchyNeedsAnEligibleSpan) {
  gpu::Machine m(four_gpus());  // one node
  Communicator comm(m, all_pes(m));
  expect_error(
      [&] {
        return comm.all_reduce(64, FloatBufs{}, AllReduceAlgo::kHierarchical);
      },
      "all_reduce: algo kHierarchical needs >1 node with equal, >1 member "
      "counts, got members per node [4]");

  gpu::Machine::Config c;
  c.num_nodes = 2;
  c.gpus_per_node = 4;
  gpu::Machine m2(c);
  Communicator uneven(m2, {0, 1, 2, 5});
  expect_error(
      [&] {
        return uneven.all_reduce(64, FloatBufs{},
                                 AllReduceAlgo::kHierarchical);
      },
      "all_reduce: algo kHierarchical needs >1 node with equal, >1 member "
      "counts, got members per node [3, 1]");
}

TEST(AllReduce, TwoPhaseScalesWithMessageSize) {
  gpu::Machine m(four_gpus());
  Communicator comm(m, all_pes(m));
  TimeNs t_small = 0, t_big = 0;
  run_all_reduce(m.engine(), comm, 1 << 10, FloatBufs{},
                 AllReduceAlgo::kTwoPhaseDirect, t_small);
  m.engine().run();
  gpu::Machine m2(four_gpus());
  Communicator comm2(m2, all_pes(m2));
  run_all_reduce(m2.engine(), comm2, 1 << 22, FloatBufs{},
                 AllReduceAlgo::kTwoPhaseDirect, t_big);
  m2.engine().run();
  EXPECT_GT(t_big, 4 * t_small);
}

}  // namespace
}  // namespace fcc::ccl
