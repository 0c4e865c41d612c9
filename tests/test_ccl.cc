// Baseline collectives: functional correctness + timing sanity.
#include <gtest/gtest.h>

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

// Every recv rank must hold N chunks, like every send rank. The check fires
// inside the collective's coroutine, where an escaping exception ends the
// process (the engine's policy), so this is a death test on its message.
TEST(AllToAll, UndersizedRecvBufferFailsTheCheck) {
  const auto run = [] {
    gpu::Machine m(four_gpus());
    Communicator comm(m, all_pes(m));
    const std::int64_t chunk = 8;
    std::vector<std::vector<float>> send(4, std::vector<float>(4 * chunk));
    std::vector<std::vector<float>> recv(4, std::vector<float>(4 * chunk));
    recv[3] = std::vector<float>(3 * chunk);  // one chunk short, exactly
    TimeNs done = 0;
    run_all_to_all(m.engine(), comm, chunk, make_bufs(send), make_bufs(recv),
                   done);
    m.engine().run();
  };
  EXPECT_DEATH(run(), "logic_error(.|\n)*check failed: "
                      "recv\\.rank\\(r\\)\\.size\\(\\) >= total");
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
