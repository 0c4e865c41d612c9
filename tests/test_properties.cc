// Property-style parameterized sweeps (TEST_P) over operator configurations.
//
// Invariants checked across the whole parameter grid:
//   * fused operators produce exactly the baseline/host-reference numerics
//   * simulations drain (no deadlock: live_tasks == 0 after run)
//   * repeated runs are bit-deterministic
//   * collectives preserve their algebraic definitions for any size/world
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ccl/communicator.h"
#include "fused/embedding_a2a.h"
#include "fused/gemm_a2a.h"
#include "fused/gemv_allreduce.h"
#include "fused/op_runtime.h"
#include "gpu/machine.h"
#include "ops/gemm.h"
#include "ops/gemv.h"
#include "reference_models.h"
#include "shmem/world.h"
#include "sim/task.h"

namespace fcc {
namespace {

gpu::Machine::Config machine_config(int nodes, int gpus_per_node) {
  gpu::Machine::Config c;
  c.num_nodes = nodes;
  c.gpus_per_node = gpus_per_node;
  return c;
}

// ---------------------------------------------------------------------------
// Fused embedding + All-to-All: (nodes, gpus/node, batch/pe, tables, vps,
// policy)
// ---------------------------------------------------------------------------

using EmbParam = std::tuple<int, int, int, int, int, gpu::SchedulePolicy>;

std::string emb_param_name(const ::testing::TestParamInfo<EmbParam>& info) {
  return "n" + std::to_string(std::get<0>(info.param)) + "g" +
         std::to_string(std::get<1>(info.param)) + "b" +
         std::to_string(std::get<2>(info.param)) + "t" +
         std::to_string(std::get<3>(info.param)) + "v" +
         std::to_string(std::get<4>(info.param)) +
         (std::get<5>(info.param) == gpu::SchedulePolicy::kCommAware
              ? "aware"
              : "obl");
}

class EmbeddingSweep : public ::testing::TestWithParam<EmbParam> {};

TEST_P(EmbeddingSweep, FusedMatchesBaselineExactly) {
  const auto [nodes, gpn, batch_per_pe, tables, vps, policy] = GetParam();
  const int pes = nodes * gpn;

  fused::EmbeddingA2AConfig cfg;
  cfg.map.num_pes = pes;
  cfg.map.tables_per_pe = tables;
  cfg.map.global_batch = batch_per_pe * pes;
  cfg.map.dim = 8;
  cfg.map.vectors_per_slice = vps;
  cfg.pooling = 3;
  cfg.rows_per_table = 32;
  cfg.functional = true;
  cfg.policy = policy;
  if (batch_per_pe % vps != 0) GTEST_SKIP() << "slice does not divide batch";

  gpu::Machine mf(machine_config(nodes, gpn));
  shmem::World wf(mf);
  shmem::SymArray<float> out_f(pes, cfg.map.dest_elems());
  auto df = fused::EmbeddingA2AData::random(cfg, &out_f, 1234);
  fused::FusedEmbeddingAllToAll(wf, cfg, &df).run_to_completion();
  EXPECT_EQ(mf.engine().live_tasks(), 0);

  gpu::Machine mb(machine_config(nodes, gpn));
  shmem::World wb(mb);
  shmem::SymArray<float> out_b(pes, cfg.map.dest_elems());
  auto db = fused::EmbeddingA2AData::random(cfg, &out_b, 1234);
  fused::BaselineEmbeddingAllToAll(wb, cfg, &db).run_to_completion();

  for (PeId pe = 0; pe < pes; ++pe) {
    auto a = out_f.pe(pe);
    auto b = out_b.pe(pe);
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_NEAR(a[i], b[i], 1e-4) << "pe " << pe << " i " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EmbeddingSweep,
    ::testing::Combine(::testing::Values(1, 2),       // nodes
                       ::testing::Values(1, 2, 4),    // gpus per node
                       ::testing::Values(4, 8),       // batch per pe
                       ::testing::Values(1, 3),       // tables per pe
                       ::testing::Values(1, 2, 4),    // vectors per slice
                       ::testing::Values(gpu::SchedulePolicy::kCommAware,
                                         gpu::SchedulePolicy::kOblivious)),
    emb_param_name);

// ---------------------------------------------------------------------------
// Fused GEMV + AllReduce: (pes, m, k_per_pe, tile_rows)
// ---------------------------------------------------------------------------

using GemvParam = std::tuple<int, int, int, int>;

std::string gemv_param_name(const ::testing::TestParamInfo<GemvParam>& info) {
  return "p" + std::to_string(std::get<0>(info.param)) + "m" +
         std::to_string(std::get<1>(info.param)) + "k" +
         std::to_string(std::get<2>(info.param)) + "t" +
         std::to_string(std::get<3>(info.param));
}

class GemvSweep : public ::testing::TestWithParam<GemvParam> {};

TEST_P(GemvSweep, FusedMatchesHostReference) {
  const auto [pes, m, k_per_pe, tile_rows] = GetParam();
  fused::GemvAllReduceConfig cfg;
  cfg.m = m;
  cfg.k_global = k_per_pe * pes;
  cfg.tile_rows = tile_rows;
  cfg.functional = true;
  if ((m / tile_rows) % pes != 0 || m % tile_rows != 0) {
    GTEST_SKIP() << "tiles not divisible across PEs";
  }

  gpu::Machine machine(machine_config(1, pes));
  shmem::World world(machine);
  shmem::SymArray<float> y(pes, static_cast<std::size_t>(m));
  auto data = fused::GemvAllReduceData::random(cfg, pes, &y, 555);

  std::vector<float> ref(static_cast<std::size_t>(m), 0.0f);
  const auto shape = cfg.shape(pes);
  for (int pe = 0; pe < pes; ++pe) {
    const auto part =
        ops::gemv_reference(shape, data.w[static_cast<std::size_t>(pe)],
                            data.x[static_cast<std::size_t>(pe)]);
    for (int r = 0; r < m; ++r) {
      ref[static_cast<std::size_t>(r)] += part[static_cast<std::size_t>(r)];
    }
  }

  fused::FusedGemvAllReduce(world, cfg, &data).run_to_completion();
  EXPECT_EQ(machine.engine().live_tasks(), 0);
  for (PeId pe = 0; pe < pes; ++pe) {
    auto got = y.pe(pe);
    for (int r = 0; r < m; ++r) {
      ASSERT_NEAR(got[static_cast<std::size_t>(r)],
                  ref[static_cast<std::size_t>(r)], 1e-3);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GemvSweep,
    ::testing::Combine(::testing::Values(2, 4),       // pes
                       ::testing::Values(32, 64, 96), // m
                       ::testing::Values(8, 24),      // k per pe
                       ::testing::Values(4, 8)),      // tile rows
    gemv_param_name);

// ---------------------------------------------------------------------------
// Fused GEMM + All-to-All: (pes, rows_per_origin, d_model, d_ff, block)
// ---------------------------------------------------------------------------

using GemmParam = std::tuple<int, int, int, int, int>;

std::string gemm_param_name(const ::testing::TestParamInfo<GemmParam>& info) {
  return "p" + std::to_string(std::get<0>(info.param)) + "r" +
         std::to_string(std::get<1>(info.param)) + "m" +
         std::to_string(std::get<2>(info.param)) + "f" +
         std::to_string(std::get<3>(info.param)) + "b" +
         std::to_string(std::get<4>(info.param));
}

class GemmSweep : public ::testing::TestWithParam<GemmParam> {};

TEST_P(GemmSweep, FusedMatchesHostReference) {
  const auto [pes, rows, dm, dff, block] = GetParam();
  fused::GemmA2AConfig cfg;
  cfg.rows_per_origin = rows;
  cfg.d_model = dm;
  cfg.d_ff = dff;
  cfg.block_m = block;
  cfg.block_n = block;
  cfg.functional = true;

  gpu::Machine machine(machine_config(1, pes));
  shmem::World world(machine);
  shmem::SymArray<float> out(pes, cfg.out_elems(pes));
  auto data = fused::GemmA2AData::random(cfg, pes, &out, 777);

  const auto shape = cfg.shape(pes);
  fused::FusedGemmAllToAll(world, cfg, &data).run_to_completion();
  EXPECT_EQ(machine.engine().live_tasks(), 0);

  for (int e = 0; e < pes; ++e) {
    const auto c = ops::gemm_reference(
        shape, data.a[static_cast<std::size_t>(e)],
        data.b[static_cast<std::size_t>(e)]);
    for (int o = 0; o < pes; ++o) {
      auto got = out.pe(o);
      for (int lr = 0; lr < rows; ++lr) {
        for (int j = 0; j < dm; ++j) {
          ASSERT_NEAR(
              got[(static_cast<std::size_t>(e) * rows +
                   static_cast<std::size_t>(lr)) *
                      static_cast<std::size_t>(dm) +
                  static_cast<std::size_t>(j)],
              c[static_cast<std::size_t>(o * rows + lr) * dm +
                static_cast<std::size_t>(j)],
              1e-3);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GemmSweep,
    ::testing::Combine(::testing::Values(2, 4),    // pes
                       ::testing::Values(4, 6, 8), // rows per origin
                       ::testing::Values(8, 12),   // d_model
                       ::testing::Values(8, 16),   // d_ff
                       ::testing::Values(2, 4)),   // block
    gemm_param_name);

// ---------------------------------------------------------------------------
// Collectives: AllReduce == elementwise sum and All-to-All == the chunk
// permutation, for any (machine shape, size, algo)
// ---------------------------------------------------------------------------

using Shape = std::pair<int, int>;  // (nodes, gpus per node)

const auto kShapes = ::testing::Values(Shape{1, 2}, Shape{1, 3}, Shape{1, 4},
                                       Shape{1, 8}, Shape{2, 2}, Shape{2, 4});

std::string shape_name(Shape shape) {
  return "n" + std::to_string(shape.first) + "g" +
         std::to_string(shape.second);
}

std::string algo_name(ccl::AllReduceAlgo algo) {
  switch (algo) {
    case ccl::AllReduceAlgo::kAuto:
      return "auto";
    case ccl::AllReduceAlgo::kTwoPhaseDirect:
      return "direct";
    case ccl::AllReduceAlgo::kRing:
      return "ring";
    case ccl::AllReduceAlgo::kHierarchical:
      return "hier";
  }
  return "unknown";
}

template <typename Param>
std::string ccl_param_name(const ::testing::TestParamInfo<Param>& info) {
  return shape_name(std::get<0>(info.param)) + "e" +
         std::to_string(std::get<1>(info.param)) +
         algo_name(std::get<2>(info.param));
}

using AllReduceParam = std::tuple<Shape, int, ccl::AllReduceAlgo>;

class AllReduceSweep : public ::testing::TestWithParam<AllReduceParam> {};

sim::Task drive_all_reduce(sim::Engine&, ccl::Communicator& comm,
                           std::int64_t n, ccl::FloatBufs bufs,
                           ccl::AllReduceAlgo algo, bool& done) {
  co_await comm.all_reduce(n, std::move(bufs), algo);
  done = true;
}

TEST_P(AllReduceSweep, EqualsElementwiseSum) {
  const auto [shape, n_elems, algo] = GetParam();
  gpu::Machine machine(machine_config(shape.first, shape.second));
  ccl::Communicator comm(machine, fused::all_pes(machine));
  if (algo == ccl::AllReduceAlgo::kHierarchical && !comm.hierarchy_eligible()) {
    GTEST_SKIP() << "hierarchical needs several nodes of several GPUs";
  }
  const int pes = comm.size();

  Rng rng(static_cast<std::uint64_t>(pes * 1000 + n_elems));
  std::vector<std::vector<float>> data(static_cast<std::size_t>(pes));
  std::vector<float> expect(static_cast<std::size_t>(n_elems), 0.0f);
  for (auto& d : data) {
    d.resize(static_cast<std::size_t>(n_elems));
    for (auto& v : d) {
      v = static_cast<float>(rng.next_double(-2, 2));
    }
    for (std::int64_t i = 0; i < n_elems; ++i) {
      expect[static_cast<std::size_t>(i)] += d[static_cast<std::size_t>(i)];
    }
  }
  ccl::FloatBufs bufs;
  for (auto& d : data) bufs.per_rank.emplace_back(d);
  bool done = false;
  drive_all_reduce(machine.engine(), comm, n_elems, std::move(bufs), algo,
                   done);
  machine.engine().run();
  EXPECT_TRUE(done);
  EXPECT_EQ(machine.engine().live_tasks(), 0);
  for (int pe = 0; pe < pes; ++pe) {
    for (std::int64_t i = 0; i < n_elems; ++i) {
      ASSERT_NEAR(data[static_cast<std::size_t>(pe)][static_cast<std::size_t>(i)],
                  expect[static_cast<std::size_t>(i)], 1e-3);
    }
  }
  if (algo != ccl::AllReduceAlgo::kAuto) return;
  // kAuto runs as fast as the fastest algorithm the span admits.
  TimeNs fastest = std::numeric_limits<TimeNs>::max();
  for (const ccl::AllReduceAlgo other :
       {ccl::AllReduceAlgo::kTwoPhaseDirect, ccl::AllReduceAlgo::kRing,
        ccl::AllReduceAlgo::kHierarchical}) {
    if (other == ccl::AllReduceAlgo::kHierarchical &&
        !comm.hierarchy_eligible()) {
      continue;
    }
    gpu::Machine fresh(machine_config(shape.first, shape.second));
    ccl::Communicator c(fresh, fused::all_pes(fresh));
    drive_all_reduce(fresh.engine(), c, n_elems, {}, other, done);
    fresh.engine().run();
    fastest = std::min(fastest, c.last_duration());
  }
  EXPECT_EQ(comm.last_duration(), fastest);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AllReduceSweep,
    ::testing::Combine(kShapes,
                       ::testing::Values(1, 7, 64, 1000),  // elems
                       ::testing::Values(ccl::AllReduceAlgo::kTwoPhaseDirect,
                                         ccl::AllReduceAlgo::kRing,
                                         ccl::AllReduceAlgo::kHierarchical,
                                         ccl::AllReduceAlgo::kAuto)),
    ccl_param_name<AllReduceParam>);

using AllToAllParam = std::tuple<Shape, int>;

class AllToAllSweep : public ::testing::TestWithParam<AllToAllParam> {};

sim::Task drive_all_to_all(sim::Engine&, ccl::Communicator& comm,
                           std::int64_t chunk, ccl::FloatBufs send,
                           ccl::FloatBufs recv, bool& done) {
  co_await comm.all_to_all(chunk, std::move(send), std::move(recv));
  done = true;
}

TEST_P(AllToAllSweep, EqualsChunkPermutation) {
  const auto [shape, chunk] = GetParam();
  gpu::Machine machine(machine_config(shape.first, shape.second));
  ccl::Communicator comm(machine, fused::all_pes(machine));
  const int pes = comm.size();
  const auto elems = static_cast<std::size_t>(pes * chunk);

  Rng rng(static_cast<std::uint64_t>(pes * 1000 + chunk));
  std::vector<std::vector<float>> send(static_cast<std::size_t>(pes));
  std::vector<std::vector<float>> recv(static_cast<std::size_t>(pes),
                                      std::vector<float>(elems, -1.0f));
  for (auto& s : send) {
    s.resize(elems);
    for (auto& v : s) v = static_cast<float>(rng.next_double(-2, 2));
  }
  ccl::FloatBufs send_bufs, recv_bufs;
  for (auto& s : send) send_bufs.per_rank.emplace_back(s);
  for (auto& r : recv) recv_bufs.per_rank.emplace_back(r);
  bool done = false;
  drive_all_to_all(machine.engine(), comm, chunk, std::move(send_bufs),
                   std::move(recv_bufs), done);
  machine.engine().run();
  EXPECT_TRUE(done);
  EXPECT_EQ(machine.engine().live_tasks(), 0);
  // Reference: destination d's chunk s is source s's chunk d.
  for (int d = 0; d < pes; ++d) {
    for (int s = 0; s < pes; ++s) {
      for (int i = 0; i < chunk; ++i) {
        ASSERT_EQ(recv[static_cast<std::size_t>(d)]
                      [static_cast<std::size_t>(s * chunk + i)],
                  send[static_cast<std::size_t>(s)]
                      [static_cast<std::size_t>(d * chunk + i)])
            << "dst " << d << " src " << s << " i " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AllToAllSweep,
    ::testing::Combine(kShapes,
                       ::testing::Values(1, 7, 64)),  // chunk elems
    [](const ::testing::TestParamInfo<AllToAllParam>& info) {
      return shape_name(std::get<0>(info.param)) + "e" +
             std::to_string(std::get<1>(info.param)) + "pairwise";
    });

// ---------------------------------------------------------------------------
// Determinism across the embedding grid (timing-only, byte-equal repeats)
// ---------------------------------------------------------------------------

class DeterminismSweep : public ::testing::TestWithParam<int> {};

TEST_P(DeterminismSweep, RepeatRunsHaveIdenticalDurations) {
  const int tables = GetParam();
  fused::EmbeddingA2AConfig cfg;
  cfg.map.num_pes = 2;
  cfg.map.tables_per_pe = tables;
  cfg.map.global_batch = 128;
  cfg.map.dim = 64;
  cfg.map.vectors_per_slice = 16;
  cfg.pooling = 16;
  cfg.functional = false;
  auto once = [&] {
    gpu::Machine m(machine_config(2, 1));
    shmem::World w(m);
    return fused::FusedEmbeddingAllToAll(w, cfg, nullptr)
        .run_to_completion()
        .duration();
  };
  EXPECT_EQ(once(), once());
}

INSTANTIATE_TEST_SUITE_P(Grid, DeterminismSweep,
                         ::testing::Values(1, 2, 8, 32));

}  // namespace
}  // namespace fcc
