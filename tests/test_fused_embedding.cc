// Fused embedding + All-to-All: numerics vs baseline vs reference, timing
// relations, scheduling skew and order, slice mapping.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <functional>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "ccl/communicator.h"
#include "common/rng.h"
#include "fused/embedding_a2a.h"
#include "gpu/machine.h"
#include "gpu/schedule.h"
#include "hw/topology.h"
#include "ops/cost_model.h"
#include "reference_models.h"
#include "reject_config.h"
#include "shmem/world.h"
#include "sim/task.h"

namespace fcc::fused {
namespace {

gpu::Machine::Config intra_node(int gpus) {
  gpu::Machine::Config c;
  c.num_nodes = 1;
  c.gpus_per_node = gpus;
  return c;
}

gpu::Machine::Config inter_node(int nodes) {
  gpu::Machine::Config c;
  c.num_nodes = nodes;
  c.gpus_per_node = 1;
  return c;
}

gpu::Machine::Config torus(int dim_x, int dim_y) {
  gpu::Machine::Config c;
  c.num_nodes = dim_x * dim_y;
  c.gpus_per_node = 1;
  c.topology.kind = hw::TopologySpec::Kind::kTorus2D;
  c.topology.torus.dim_x = dim_x;
  c.topology.torus.dim_y = dim_y;
  return c;
}

EmbeddingA2AConfig small_config(int pes) {
  EmbeddingA2AConfig cfg;
  cfg.map.num_pes = pes;
  cfg.map.tables_per_pe = 2;
  cfg.map.global_batch = 8 * pes;
  cfg.map.dim = 8;
  cfg.map.vectors_per_slice = 2;
  cfg.pooling = 4;
  cfg.rows_per_table = 64;
  cfg.functional = true;
  return cfg;
}

/// Host-side expected outputs per destination PE.
std::vector<std::vector<float>> expected_outputs(
    const EmbeddingA2AConfig& cfg, const EmbeddingA2AData& data) {
  const auto& map = cfg.map;
  std::vector<std::vector<float>> expect(
      static_cast<std::size_t>(map.num_pes),
      std::vector<float>(map.dest_elems(), 0.0f));
  const auto emb = cfg.emb_config();
  for (PeId src = 0; src < map.num_pes; ++src) {
    const auto all = ops::pool_all_reference(
        emb, data.tables[static_cast<std::size_t>(src)],
        data.batches[static_cast<std::size_t>(src)]);
    for (int b = 0; b < map.global_batch; ++b) {
      const PeId d = map.dest_of_sample(b);
      const int lb = b % map.local_batch();
      for (int t = 0; t < map.tables_per_pe; ++t) {
        const int gt = map.global_table(src, t);
        for (int c = 0; c < map.dim; ++c) {
          expect[static_cast<std::size_t>(d)][map.dest_offset(lb, gt, c)] =
              all[(static_cast<std::size_t>(b) * map.tables_per_pe +
                   static_cast<std::size_t>(t)) *
                      map.dim +
                  static_cast<std::size_t>(c)];
        }
      }
    }
  }
  return expect;
}

void expect_outputs_match(const EmbeddingA2AConfig& cfg,
                          shmem::SymArray<float>& out,
                          const std::vector<std::vector<float>>& expect) {
  for (PeId pe = 0; pe < cfg.map.num_pes; ++pe) {
    auto got = out.pe(pe);
    const auto& want = expect[static_cast<std::size_t>(pe)];
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_NEAR(got[i], want[i], 1e-4)
          << "pe " << pe << " elem " << i;
    }
  }
}

TEST(Divisor, ExactForEveryNonNegativeIntOperand) {
  // Every divisor class (1, powers of two, odd, the largest int) against
  // the operands where a rounding error would show first: around each
  // multiple of d near 0 and near 2^31, plus a seeded random sweep.
  constexpr int kMax = std::numeric_limits<int>::max();
  std::vector<int> divisors = {1, 2, 3, 5, 7, 10, 64, 100, 641, 1000,
                               12345, 65537, 1 << 30, kMax - 1, kMax};
  Rng rng(44);
  for (int i = 0; i < 32; ++i) {
    divisors.push_back(1 + static_cast<int>(rng.next_u64() % kMax));
  }
  for (const int d : divisors) {
    const Divisor div(d);
    ASSERT_EQ(div.value(), d);
    std::vector<int> ns = {0, 1, 2, kMax, kMax - 1};
    const long long last = kMax / d;
    for (const long long k : {1LL, 2LL, 3LL, last, last - 1}) {
      for (const long long off : {-1LL, 0LL, 1LL}) {
        const long long n = k * d + off;
        if (n >= 0 && n <= kMax) ns.push_back(static_cast<int>(n));
      }
    }
    for (int i = 0; i < 256; ++i) {
      ns.push_back(
          static_cast<int>(rng.next_u64() % (std::uint64_t{kMax} + 1)));
    }
    for (const int n : ns) ASSERT_EQ(div.div(n), n / d) << n << " / " << d;
  }
  for (int d = 1; d <= 300; ++d) {
    const Divisor div(d);
    for (int n = 0; n <= 3000; ++n) ASSERT_EQ(div.div(n), n / d);
  }
  EXPECT_THROW(Divisor(0), std::logic_error);
}

TEST(SliceMap, RoundTripsWgSliceLane) {
  SliceMap map;
  map.num_pes = 4;
  map.tables_per_pe = 3;
  map.global_batch = 32;
  map.dim = 16;
  map.vectors_per_slice = 4;
  map.validate();
  EXPECT_EQ(map.local_batch(), 8);
  EXPECT_EQ(map.num_logical_wgs(), 96);
  EXPECT_EQ(map.num_slices(), 3 * 4 * 2);

  const SliceIndex index(map);
  std::vector<int> wgs_in_slice(static_cast<std::size_t>(map.num_slices()), 0);
  for (int lw = 0; lw < map.num_logical_wgs(); ++lw) {
    const SliceIndex::Placement at = index.place(lw);
    const int s = at.slice;
    ASSERT_GE(s, 0);
    ASSERT_LT(s, map.num_slices());
    ++wgs_in_slice[static_cast<std::size_t>(s)];
    // Slice metadata must agree with the WG's own coordinates.
    EXPECT_EQ(map.slice_table(s), map.wg_table(lw));
    EXPECT_EQ(at.dest, map.dest_of_sample(map.wg_sample(lw)));
    EXPECT_EQ(map.slice_dest(s), at.dest);
    EXPECT_EQ(index.dest_of(s), at.dest);
    // Destination-major: dest's slices are one contiguous range.
    EXPECT_EQ(s / map.slices_per_dest(), at.dest);
    EXPECT_EQ(s % map.slices_per_dest(),
              map.wg_table(lw) * map.slices_per_dest_per_table() +
                  map.slice_group(s));
    // The slice's sliceRdy flag is numbered (source, table, group).
    for (PeId src = 0; src < map.num_pes; ++src) {
      EXPECT_EQ(index.flag_of(src, at.dest, s),
                static_cast<std::size_t>(
                    (src * map.tables_per_pe + map.wg_table(lw)) *
                        map.slices_per_dest_per_table() +
                    map.slice_group(s)));
    }
    EXPECT_GE(at.lane, 0);
    EXPECT_LT(at.lane, map.wgs_per_slice());
    EXPECT_EQ(map.slice_sample_begin(s) + at.lane, map.wg_sample(lw));
  }
  for (int c : wgs_in_slice) EXPECT_EQ(c, map.wgs_per_slice());
}

TEST(WgDoneTable, LastSetterOfEachSliceWins) {
  // Two PEs x two slices of 130 lanes (three mask words per slice): only
  // the WG that completes a slice is told so, and rows stay independent.
  WgDoneTable done;
  done.reset(/*pes=*/2, /*slices=*/2, /*lanes=*/130);
  for (int lane = 0; lane < 129; ++lane) {
    EXPECT_FALSE(done.mark(1, 0, 129 - lane));
  }
  EXPECT_FALSE(done.mark(0, 0, 0));
  EXPECT_FALSE(done.mark(1, 1, 0));
  EXPECT_TRUE(done.mark(1, 0, 0));
  for (int lane = 1; lane < 129; ++lane) EXPECT_FALSE(done.mark(0, 0, lane));
  EXPECT_TRUE(done.mark(0, 0, 129));

  // reset() clears every bit for the next run.
  done.reset(1, 1, 2);
  EXPECT_FALSE(done.mark(0, 0, 1));
  EXPECT_TRUE(done.mark(0, 0, 0));
}

TEST(WgDoneTable, FullMaskWordsCompleteOnTheirLastLane) {
  // Slices of 1, 64 and 128 lanes fill their last mask word exactly: the
  // slice completes when its last clear bit is set, whatever the order.
  WgDoneTable done;
  done.reset(/*pes=*/1, /*slices=*/2, /*lanes=*/1);
  EXPECT_TRUE(done.mark(0, 1, 0));
  EXPECT_TRUE(done.mark(0, 0, 0));
  done.reset(/*pes=*/2, /*slices=*/1, /*lanes=*/64);
  for (int lane = 63; lane > 0; --lane) EXPECT_FALSE(done.mark(1, 0, lane));
  for (int lane = 0; lane < 63; ++lane) EXPECT_FALSE(done.mark(0, 0, lane));
  EXPECT_TRUE(done.mark(1, 0, 0));
  EXPECT_TRUE(done.mark(0, 0, 63));
  EXPECT_THROW(done.mark(0, 0, 63), std::logic_error);
  done.reset(/*pes=*/1, /*slices=*/1, /*lanes=*/128);
  for (int lane = 64; lane < 128; ++lane) EXPECT_FALSE(done.mark(0, 0, lane));
  for (int lane = 1; lane < 64; ++lane) EXPECT_FALSE(done.mark(0, 0, lane));
  EXPECT_TRUE(done.mark(0, 0, 0));
}

TEST(WgDoneTable, DoubleSetThrows) {
  WgDoneTable done;
  done.reset(/*pes=*/1, /*slices=*/3, /*lanes=*/65);
  EXPECT_FALSE(done.mark(0, 2, 64));
  EXPECT_THROW(done.mark(0, 2, 64), std::logic_error);
  done.reset(/*pes=*/1, /*slices=*/1, /*lanes=*/3);
  EXPECT_FALSE(done.mark(0, 0, 1));
  EXPECT_THROW(done.mark(0, 0, 1), std::logic_error);
}

TEST(SliceMap, RemoteCountsAreConsistent) {
  SliceMap map;
  map.num_pes = 2;
  map.tables_per_pe = 4;
  map.global_batch = 16;
  map.vectors_per_slice = 2;
  map.dim = 4;
  map.validate();
  for (PeId pe = 0; pe < 2; ++pe) {
    EXPECT_EQ(map.num_local_slices(pe) + map.num_remote_slices(pe),
              map.num_slices());
    int remote_wgs = 0;
    for (int lw = 0; lw < map.num_logical_wgs(); ++lw) {
      remote_wgs += map.wg_is_remote(pe, lw);
    }
    EXPECT_EQ(remote_wgs, map.num_remote_slices(pe) * map.wgs_per_slice());
  }
}

/// The comm-aware WG order as it was stored before the block form: every
/// logical WG id, one destination block at a time in `blocks` order.
std::vector<int> expanded_order(const SliceMap& map,
                                const std::vector<PeId>& blocks) {
  const SliceIndex index(map);
  std::vector<int> order;
  for (int pos = 0; pos < map.num_logical_wgs(); ++pos) {
    order.push_back(index.block_wg(blocks.data(), pos));
  }
  return order;
}

/// The comm-aware WG order as it was stored before it became a block
/// sequence over a topology's shift order: inter-node destinations, then
/// intra-node ones, each class in (self + k) mod num_pes order, then self.
/// The block form must expand to it on every fabric whose shift order is the
/// ring shift.
std::vector<int> reference_order(const SliceMap& map, PeId self,
                                 const std::function<bool(PeId)>& leaves) {
  const int wgs_per_dest = map.local_batch() * map.tables_per_pe;
  std::vector<int> order;
  const auto append_block = [&](PeId d) {
    for (int lw = d * wgs_per_dest; lw < (d + 1) * wgs_per_dest; ++lw) {
      order.push_back(lw);
    }
  };
  for (const bool inter_node : {true, false}) {
    for (int k = 1; k < map.num_pes; ++k) {
      const PeId d = (self + k) % map.num_pes;
      if (leaves(d) == inter_node) append_block(d);
    }
  }
  append_block(self);
  return order;
}

/// PE `self`'s comm-aware destination blocks on `topo`.
std::vector<PeId> topo_blocks(const SliceMap& map, const hw::Topology& topo,
                              PeId self) {
  return map.comm_aware_blocks(self, topo.shift_order(topo.node_of(self)),
                               topo.gpus_per_node());
}

TEST(SliceMap, CommAwareBlocksStaggerDestinations) {
  // 8 PEs on four ring-shift fabrics: 4 nodes x 2 GPUs (each PE has 1
  // intra-node and 6 inter-node peers) and three 2 x 4 shapes.
  const hw::FabricSpec fabric;
  const hw::IbSpec ib;
  hw::MultiRailTopology fc4x2(4, 2, /*rails=*/1, fabric, ib);
  hw::MultiRailTopology fc2x4(2, 4, /*rails=*/1, fabric, ib);
  hw::SwitchedTopology switched(2, 4, hw::SwitchedSpec{}, ib);
  hw::MultiRailTopology rails(2, 4, /*rails=*/2, fabric, ib);
  SliceMap map;
  map.num_pes = 8;
  map.tables_per_pe = 3;
  map.global_batch = 64;
  map.dim = 4;
  map.vectors_per_slice = 4;
  map.validate();
  const int block = map.wgs_per_dest();
  ASSERT_EQ(block, map.local_batch() * map.tables_per_pe);
  for (const hw::Topology* topo :
       std::initializer_list<const hw::Topology*>{&fc4x2, &fc2x4, &switched,
                                                  &rails}) {
    SCOPED_TRACE(std::string(topo->kind_name()) + " " +
                 std::to_string(topo->num_nodes()) + "x" +
                 std::to_string(topo->gpus_per_node()));
    ASSERT_EQ(topo->num_pes(), map.num_pes);
    for (PeId self = 0; self < map.num_pes; ++self) {
      const auto leaves_node = [topo, self](PeId d) {
        return topo->route_class(self, d) == hw::RouteClass::kInterNode;
      };
      const std::vector<PeId> dests = topo_blocks(map, *topo, self);
      ASSERT_EQ(static_cast<int>(dests.size()), map.num_pes);
      const std::vector<int> order = expanded_order(map, dests);

      // The expansion is a permutation of every logical WG, and exactly the
      // rotation order it replaces.
      ASSERT_EQ(static_cast<int>(order.size()), map.num_logical_wgs());
      std::vector<int> seen(order.size(), 0);
      for (int lw : order) ++seen[static_cast<std::size_t>(lw)];
      for (int c : seen) ASSERT_EQ(c, 1);
      EXPECT_EQ(order, reference_order(map, self, leaves_node));

      // Contiguous destination blocks, each in ascending WG order.
      for (std::size_t i = 0; i < order.size(); ++i) {
        const PeId d = map.dest_of_sample(map.wg_sample(order[i]));
        EXPECT_EQ(d, dests[i / static_cast<std::size_t>(block)]);
        if (i % static_cast<std::size_t>(block) == 0) {
          EXPECT_EQ(order[i], d * block);
        } else {
          EXPECT_EQ(order[i], order[i - 1] + 1);
        }
      }

      // Own block last; inter-node blocks before intra-node ones; each class
      // in (d - self - 1) mod n order, so the first block is the next
      // inter-node peer after self.
      EXPECT_EQ(dests.back(), self);
      const auto rank = [&](PeId d) {
        return (d - self - 1 + map.num_pes) % map.num_pes;
      };
      for (std::size_t i = 0; i + 2 < dests.size(); ++i) {
        const bool a = leaves_node(dests[i]);
        const bool b = leaves_node(dests[i + 1]);
        EXPECT_TRUE(a || !b) << "intra-node block before an inter-node one";
        if (a == b) {
          EXPECT_LT(rank(dests[i]), rank(dests[i + 1]));
        }
      }
      PeId first = (self + 1) % map.num_pes;
      while (!leaves_node(first)) first = (first + 1) % map.num_pes;
      EXPECT_EQ(dests.front(), first);
    }
  }
}

TEST(SliceMap, CommAwareBlocksOnRingShiftMatchRotationOnEveryGeometry) {
  for (int nodes = 1; nodes <= 8; ++nodes) {
    for (int gpus = 1; gpus <= 8; ++gpus) {
      const hw::MultiRailTopology topo(nodes, gpus, /*rails=*/1,
                                       hw::FabricSpec{}, hw::IbSpec{});
      SliceMap map;
      map.num_pes = topo.num_pes();
      map.global_batch = map.num_pes;
      map.vectors_per_slice = 1;
      map.validate();
      for (PeId self = 0; self < map.num_pes; ++self) {
        const auto leaves = [&topo, self](PeId d) {
          return topo.node_of(d) != topo.node_of(self);
        };
        ASSERT_EQ(expanded_order(map, topo_blocks(map, topo, self)),
                  reference_order(map, self, leaves))
            << nodes << "x" << gpus << " self " << self;
      }
    }
  }
}

TEST(SliceMap, CommAwareBlocksOnTwoPesExpandToRemoteFirstPartition) {
  SliceMap map;
  map.num_pes = 2;
  map.tables_per_pe = 4;
  map.global_batch = 32;
  map.dim = 4;
  map.vectors_per_slice = 4;
  map.validate();
  for (const bool inter_node : {true, false}) {
    // Two single-GPU nodes, or one node with two GPUs.
    const int gpus_per_node = inter_node ? 1 : 2;
    for (PeId self = 0; self < 2; ++self) {
      const auto leaves = [inter_node](PeId) { return inter_node; };
      const std::vector<NodeId> node_order =
          inter_node ? std::vector<NodeId>{1 - self} : std::vector<NodeId>{};
      const auto old_order = gpu::make_schedule(
          map.num_logical_wgs(),
          [&map, self](int lw) { return map.wg_is_remote(self, lw); });
      const auto order = expanded_order(
          map, map.comm_aware_blocks(self, node_order, gpus_per_node));
      EXPECT_EQ(order, old_order);
      EXPECT_EQ(order, reference_order(map, self, leaves));
    }
  }
}

/// Every PE's comm-aware blocks on a `nx` x `ny` torus with `gpus` GPUs per
/// node, [pe][step].
std::vector<std::vector<PeId>> torus_blocks(int nx, int ny, int gpus) {
  hw::TorusSpec spec;
  spec.dim_x = nx;
  spec.dim_y = ny;
  const hw::TorusTopology topo(spec, gpus);
  SliceMap map;
  map.num_pes = topo.num_pes();
  std::vector<std::vector<PeId>> blocks;
  for (PeId pe = 0; pe < map.num_pes; ++pe) {
    blocks.push_back(topo_blocks(map, topo, pe));
  }
  return blocks;
}

TEST(SliceMap, CommAwareBlocksOnTorusArePermutationsPerStep) {
  // Both GPUs of one node walk the same destination GPUs, as on every
  // other fabric, so with 2 GPUs per node it is the sources of one local
  // index whose destinations form a permutation of the nodes at each
  // inter-node step; intra-node and own-block steps permute all PEs.
  for (const auto& [nx, ny, gpus] :
       {std::tuple{8, 8, 1}, std::tuple{8, 2, 1}, std::tuple{6, 4, 1},
        std::tuple{16, 8, 1}, std::tuple{2, 2, 2}}) {
    SCOPED_TRACE(std::to_string(nx) + "x" + std::to_string(ny) + " x" +
                 std::to_string(gpus));
    const auto blocks = torus_blocks(nx, ny, gpus);
    const int pes = static_cast<int>(blocks.size());
    const int inter_steps = (nx * ny - 1) * gpus;
    for (int k = 0; k < pes; ++k) {
      std::vector<int> hits(static_cast<std::size_t>(pes), 0);
      for (PeId src = 0; src < pes; ++src) {
        const PeId d = blocks[static_cast<std::size_t>(src)]
                             [static_cast<std::size_t>(k)];
        // An inter-node step counts each (source local index, destination
        // node) pair, so a permutation per local index hits each once.
        const int slot = k < inter_steps
                             ? (d / gpus) * gpus + src % gpus
                             : d;
        ++hits[static_cast<std::size_t>(slot)];
      }
      for (PeId pe = 0; pe < pes; ++pe) {
        EXPECT_EQ(hits[static_cast<std::size_t>(pe)], 1)
            << "step " << k << " slot " << pe;
      }
    }
  }
}

TEST(SliceMap, CommAwareBlocksOnTorusTakeOneShiftPerStep) {
  // Step k sends every even-coloured node (x + y even) by the same 2D
  // shift s0 and every odd-coloured node by -s0, nearest first by max ring
  // distance; on even-sized tori each step is then a permutation. On 5x5
  // the colouring wraps unevenly, so only the shift rule is asserted.
  for (const auto& [nx, ny] :
       {std::pair{8, 8}, std::pair{8, 2}, std::pair{6, 4}, std::pair{16, 8},
        std::pair{5, 5}}) {
    SCOPED_TRACE(std::to_string(nx) + "x" + std::to_string(ny));
    const auto blocks = torus_blocks(nx, ny, 1);
    const int pes = nx * ny;
    const bool even_sized = nx % 2 == 0 && ny % 2 == 0;
    const auto shift = [nx, ny](PeId src, PeId dst) {
      return std::pair{(dst % nx - src % nx + nx) % nx,
                       (dst / nx - src / nx + ny) % ny};
    };
    const auto mirror = [nx, ny](std::pair<int, int> s) {
      return std::pair{(nx - s.first) % nx, (ny - s.second) % ny};
    };
    const auto ring = [](int d, int n) { return std::min(d, n - d); };
    int last_dist = 0;
    for (int k = 0; k + 1 < pes; ++k) {
      const auto s0 = shift(0, blocks[0][static_cast<std::size_t>(k)]);
      EXPECT_NE(s0, (std::pair{0, 0})) << "step " << k;
      std::vector<int> hits(static_cast<std::size_t>(pes), 0);
      for (PeId src = 0; src < pes; ++src) {
        const PeId d =
            blocks[static_cast<std::size_t>(src)][static_cast<std::size_t>(k)];
        const bool odd = (src % nx + src / nx) % 2 == 1;
        EXPECT_EQ(shift(src, d), odd ? mirror(s0) : s0)
            << "step " << k << " src " << src;
        ++hits[static_cast<std::size_t>(d)];
      }
      if (even_sized) {
        EXPECT_EQ(std::count(hits.begin(), hits.end(), 1), pes)
            << "step " << k;
      }
      const int dist = std::max(ring(s0.first, nx), ring(s0.second, ny));
      EXPECT_GE(dist, last_dist) << "step " << k;
      last_dist = dist;
    }
    for (PeId src = 0; src < pes; ++src) {
      EXPECT_EQ(blocks[static_cast<std::size_t>(src)].back(), src);
    }
  }
}

TEST(FusedEmbedding, IntraNodeMatchesReference) {
  const auto cfg = small_config(4);
  gpu::Machine m(intra_node(4));
  shmem::World world(m);
  shmem::SymArray<float> out(4, cfg.map.dest_elems());
  auto data = EmbeddingA2AData::random(cfg, &out, /*seed=*/11);
  const auto expect = expected_outputs(cfg, data);

  FusedEmbeddingAllToAll op(world, cfg, &data);
  const auto res = op.run_to_completion();
  EXPECT_GT(res.duration(), 0);
  expect_outputs_match(cfg, out, expect);
}

TEST(FusedEmbedding, InterNodeMatchesReference) {
  const auto cfg = small_config(2);
  gpu::Machine m(inter_node(2));
  shmem::World world(m);
  shmem::SymArray<float> out(2, cfg.map.dest_elems());
  auto data = EmbeddingA2AData::random(cfg, &out, /*seed=*/13);
  const auto expect = expected_outputs(cfg, data);

  FusedEmbeddingAllToAll op(world, cfg, &data);
  op.run_to_completion();
  expect_outputs_match(cfg, out, expect);
}

TEST(FusedEmbedding, FusedEqualsBaselineEqualsReferenceOnTorus8x2) {
  // On an 8x2 torus the comm-aware order walks mirrored 2D shifts that a
  // (self + k) rotation does not; the outputs must not depend on it.
  const auto cfg = small_config(16);
  std::vector<std::vector<float>> expect;
  const auto run = [&](auto op_type) {
    using Op = typename decltype(op_type)::type;
    gpu::Machine m(torus(8, 2));
    shmem::World world(m);
    shmem::SymArray<float> out(16, cfg.map.dest_elems());
    auto data = EmbeddingA2AData::random(cfg, &out, /*seed=*/29);
    if (expect.empty()) expect = expected_outputs(cfg, data);
    Op(world, cfg, &data).run_to_completion();
    expect_outputs_match(cfg, out, expect);
    std::vector<std::vector<float>> got;
    for (PeId pe = 0; pe < 16; ++pe) {
      const auto v = out.pe(pe);
      got.emplace_back(v.begin(), v.end());
    }
    return got;
  };
  EXPECT_EQ(run(std::type_identity<FusedEmbeddingAllToAll>{}),
            run(std::type_identity<BaselineEmbeddingAllToAll>{}));
}

TEST(BaselineEmbedding, MatchesReferenceIntraAndInter) {
  for (int nodes : {1, 2}) {
    const int pes = nodes == 1 ? 4 : 2;
    const auto cfg = small_config(pes);
    gpu::Machine m(nodes == 1 ? intra_node(4) : inter_node(2));
    shmem::World world(m);
    shmem::SymArray<float> out(pes, cfg.map.dest_elems());
    auto data = EmbeddingA2AData::random(cfg, &out, /*seed=*/17);
    const auto expect = expected_outputs(cfg, data);

    BaselineEmbeddingAllToAll op(world, cfg, &data);
    const auto res = op.run_to_completion();
    EXPECT_GT(res.duration(), 0);
    expect_outputs_match(cfg, out, expect);
  }
}

/// A one-GPU baseline run with one sample, so each per-table kernel is one
/// workgroup: its duration, one table kernel's span, and the span of its
/// All-to-All measured alone on a fresh machine.
struct IssueTimeline {
  TimeNs duration = 0;
  TimeNs kernel_ns = 0;
  TimeNs a2a_ns = 0;
};

sim::Task timed_all_to_all(sim::Engine&, ccl::Communicator& comm,
                           std::int64_t chunk) {
  co_await comm.all_to_all(chunk, ccl::FloatBufs{}, ccl::FloatBufs{});
}

IssueTimeline one_gpu_baseline(int pooling, int tables) {
  EmbeddingA2AConfig cfg;
  cfg.map.num_pes = 1;
  cfg.map.tables_per_pe = tables;
  cfg.map.global_batch = 1;
  cfg.map.dim = 64;
  cfg.map.vectors_per_slice = 1;
  cfg.pooling = pooling;
  IssueTimeline out;
  gpu::Machine m(intra_node(1));
  shmem::World world(m);
  out.duration = BaselineEmbeddingAllToAll(world, cfg, nullptr)
                     .run_to_completion()
                     .duration();
  out.kernel_ns = m.device(0).compute_duration(
      ops::embedding_wg_cost(pooling, cfg.map.dim, /*local_write=*/true,
                             ops::kBaselineCurve),
      /*active=*/1);
  gpu::Machine fresh(intra_node(1));
  ccl::Communicator comm(fresh, {0});
  timed_all_to_all(fresh.engine(), comm,
                   static_cast<std::int64_t>(tables) * cfg.map.dim);
  fresh.run_all();
  out.a2a_ns = fresh.engine().now();
  return out;
}

TEST(BaselineEmbedding, KernelsLongerThanTheIssueGapExposeOnlyTheFirstLaunch) {
  const int tables = 3;
  const IssueTimeline r = one_gpu_baseline(/*pooling=*/4096, tables);
  ASSERT_GT(r.kernel_ns, BaselineEmbeddingAllToAll::kHostIssueGapNs);
  const auto spec = gpu::Machine(intra_node(1)).device(0).spec();
  // Launch t + 1 is ready while kernel t still runs, so the kernels run
  // back to back after the first launch latency.
  EXPECT_EQ(r.duration, spec.kernel_launch_ns + tables * r.kernel_ns +
                            spec.stream_sync_ns + spec.kernel_launch_ns +
                            r.a2a_ns + spec.stream_sync_ns);
}

TEST(BaselineEmbedding, KernelsShorterThanTheIssueGapExposeTheRestOfIt) {
  const int tables = 3;
  const IssueTimeline r = one_gpu_baseline(/*pooling=*/1, tables);
  ASSERT_LT(r.kernel_ns, BaselineEmbeddingAllToAll::kHostIssueGapNs);
  const auto spec = gpu::Machine(intra_node(1)).device(0).spec();
  // Each kernel finishes before the next launch is issued: the last one
  // starts at launch + (tables - 1) issue gaps.
  EXPECT_EQ(r.duration,
            spec.kernel_launch_ns +
                (tables - 1) * BaselineEmbeddingAllToAll::kHostIssueGapNs +
                r.kernel_ns + spec.stream_sync_ns + spec.kernel_launch_ns +
                r.a2a_ns + spec.stream_sync_ns);
}

TEST(FusedEmbedding, FusedEqualsBaselineElementwise) {
  const auto cfg = small_config(2);
  gpu::Machine mf(inter_node(2));
  shmem::World wf(mf);
  shmem::SymArray<float> out_f(2, cfg.map.dest_elems());
  auto data_f = EmbeddingA2AData::random(cfg, &out_f, /*seed=*/23);
  FusedEmbeddingAllToAll(wf, cfg, &data_f).run_to_completion();

  gpu::Machine mb(inter_node(2));
  shmem::World wb(mb);
  shmem::SymArray<float> out_b(2, cfg.map.dest_elems());
  auto data_b = EmbeddingA2AData::random(cfg, &out_b, /*seed=*/23);
  BaselineEmbeddingAllToAll(wb, cfg, &data_b).run_to_completion();

  for (PeId pe = 0; pe < 2; ++pe) {
    auto a = out_f.pe(pe);
    auto b = out_b.pe(pe);
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_NEAR(a[i], b[i], 1e-4);
    }
  }
}

EmbeddingA2AConfig timing_config(int pes, int batch, int tables) {
  EmbeddingA2AConfig cfg;
  cfg.map.num_pes = pes;
  cfg.map.tables_per_pe = tables;
  cfg.map.global_batch = batch;
  cfg.map.dim = 256;
  cfg.map.vectors_per_slice = 32;
  cfg.pooling = 64;
  cfg.functional = false;
  return cfg;
}

TEST(FusedEmbedding, FusedIsFasterThanBaselineIntraNode) {
  const auto cfg = timing_config(4, 512, 16);
  gpu::Machine mf(intra_node(4));
  shmem::World wf(mf);
  FusedEmbeddingAllToAll fused(wf, cfg, nullptr);
  const auto rf = fused.run_to_completion();

  gpu::Machine mb(intra_node(4));
  shmem::World wb(mb);
  BaselineEmbeddingAllToAll base(wb, cfg, nullptr);
  const auto rb = base.run_to_completion();

  EXPECT_LT(rf.duration(), rb.duration());
}

TEST(FusedEmbedding, FusedIsFasterThanBaselineInterNode) {
  const auto cfg = timing_config(2, 512, 16);
  gpu::Machine mf(inter_node(2));
  shmem::World wf(mf);
  const auto rf =
      FusedEmbeddingAllToAll(wf, cfg, nullptr).run_to_completion();

  gpu::Machine mb(inter_node(2));
  shmem::World wb(mb);
  const auto rb =
      BaselineEmbeddingAllToAll(wb, cfg, nullptr).run_to_completion();

  EXPECT_LT(rf.duration(), rb.duration());
}

TEST(FusedEmbedding, FusedIsFasterThanBaselineOnTorus) {
  // With every PE walking destinations in the same order, all 15 sources
  // queued on one destination's ring links at a time and the fused op took
  // 2.49x the baseline on the 4x4 torus; the staggered order brings it to
  // about 0.52x. The 8x2 torus is where a (self + k) rotation and uniform
  // 2D shifts differ.
  const auto cfg = timing_config(16, 1024, 8);
  for (const auto& [nx, ny] : {std::pair{4, 4}, std::pair{8, 2}}) {
    const auto rf = [&] {
      gpu::Machine m(torus(nx, ny));
      shmem::World w(m);
      return FusedEmbeddingAllToAll(w, cfg, nullptr).run_to_completion();
    }();
    const auto rb = [&] {
      gpu::Machine m(torus(nx, ny));
      shmem::World w(m);
      return BaselineEmbeddingAllToAll(w, cfg, nullptr).run_to_completion();
    }();
    EXPECT_LT(rf.duration(), rb.duration()) << nx << "x" << ny;
  }
}

TEST(FusedEmbedding, CommAwareSchedulingReducesSkew) {
  auto cfg = timing_config(2, 1024, 16);
  cfg.policy = gpu::SchedulePolicy::kCommAware;
  gpu::Machine ma(inter_node(2));
  shmem::World wa(ma);
  const auto aware =
      FusedEmbeddingAllToAll(wa, cfg, nullptr).run_to_completion();

  cfg.policy = gpu::SchedulePolicy::kOblivious;
  gpu::Machine mo(inter_node(2));
  shmem::World wo(mo);
  const auto obliv =
      FusedEmbeddingAllToAll(wo, cfg, nullptr).run_to_completion();

  EXPECT_LE(aware.skew(), obliv.skew());
  EXPECT_LE(aware.duration(), obliv.duration());
}

TEST(FusedEmbedding, OccupancyIsBelowBaseline) {
  // ROC_SHMEM register cost: fused runs at 87.5% of the baseline slots.
  gpu::Machine m(intra_node(4));
  const int base =
      gpu::max_active_wgs(m.device(0).spec(), gpu::KernelResources{});
  const int fused =
      gpu::max_active_wgs(m.device(0).spec(), kFusedKernelResources);
  EXPECT_EQ(base, 832);
  EXPECT_EQ(fused, 728);
  EXPECT_DOUBLE_EQ(static_cast<double>(fused) / base, 0.875);
}

TEST(FusedEmbedding, OccupancyOverrideControlsSlots) {
  auto cfg = timing_config(2, 64, 2);
  cfg.occupancy_slots_override = 13;
  gpu::Machine m(inter_node(2));
  shmem::World w(m);
  FusedEmbeddingAllToAll op(w, cfg, nullptr);
  EXPECT_EQ(op.slots_per_pe(), 13);
  op.run_to_completion();
}

/// Fused embedding on 2 nodes x 2 GPUs, one WG per (table, sample): the
/// zero-copy intra-node, RDMA inter-node and local paths in a few WGs.
/// With `trace` the op emits its spans and instants, one per line as
/// "name pe slot start end" (an instant's start and end are equal).
std::pair<OperatorResult, std::string> small_traced_run(bool trace) {
  EmbeddingA2AConfig cfg;
  cfg.map.num_pes = 4;
  cfg.map.tables_per_pe = 1;
  cfg.map.global_batch = 8;
  cfg.map.dim = 64;
  cfg.map.vectors_per_slice = 2;
  cfg.pooling = 16;
  cfg.functional = false;
  cfg.occupancy_slots_override = 2;
  gpu::Machine::Config mc;
  mc.num_nodes = 2;
  mc.gpus_per_node = 2;
  mc.collect_trace = trace;
  gpu::Machine m(mc);
  shmem::World w(m);
  const OperatorResult r =
      FusedEmbeddingAllToAll(w, cfg, nullptr).run_to_completion();
  std::ostringstream os;
  for (const auto& s : m.trace().spans()) {
    os << s.name << " " << s.pid << " " << s.tid << " " << s.start << " "
       << s.end << "\n";
  }
  for (const auto& i : m.trace().instants()) {
    os << i.name << " " << i.pid << " " << i.tid << " " << i.at << " "
       << i.at << "\n";
  }
  return {r, os.str()};
}

TEST(FusedEmbedding, EmitsTraceWhenEnabled) {
  const auto [traced, list] = small_traced_run(true);
  // FCC_GOLDEN fused_embedding_trace
  const std::string golden =
      "wg 0 0 4000 4019\n"
      "wg 0 1 4000 4019\n"
      "wg 1 0 4000 4019\n"
      "wg 1 1 4000 4019\n"
      "wg 2 0 4000 4019\n"
      "wg 2 1 4000 4019\n"
      "wg 3 0 4000 4019\n"
      "wg 3 1 4000 4019\n"
      "wg 0 0 4059 4078\n"
      "wg 1 0 4059 4078\n"
      "wg 2 0 4059 4078\n"
      "wg 3 0 4059 4078\n"
      "wg 0 0 4118 4137\n"
      "wg 1 0 4118 4137\n"
      "wg 2 0 4118 4137\n"
      "wg 3 0 4118 4137\n"
      "wg 0 1 5709 5878\n"
      "wg 1 1 5709 5878\n"
      "wg 2 1 5709 5878\n"
      "wg 3 1 5709 5878\n"
      "wg 0 1 5918 5937\n"
      "wg 1 1 5918 5937\n"
      "wg 2 1 5918 5937\n"
      "wg 3 1 5918 5937\n"
      "wg 0 0 5827 5996\n"
      "wg 1 0 5827 5996\n"
      "wg 2 0 5827 5996\n"
      "wg 3 0 5827 5996\n"
      "wg 0 1 5977 5996\n"
      "wg 1 1 5977 5996\n"
      "wg 2 1 5977 5996\n"
      "wg 3 1 5977 5996\n"
      "put 0 1 5709 5709\n"
      "put 1 1 5709 5709\n"
      "put 2 1 5709 5709\n"
      "put 3 1 5709 5709\n"
      "put 0 0 5827 5827\n"
      "put 1 0 5827 5827\n"
      "put 2 0 5827 5827\n"
      "put 3 0 5827 5827\n"
      "local_slice 0 1 6036 6036\n"
      "local_slice 1 1 6036 6036\n"
      "local_slice 2 1 6036 6036\n"
      "local_slice 3 1 6036 6036\n"
      "put 0 0 6236 6236\n"
      "put 1 0 6236 6236\n"
      "put 2 0 6236 6236\n"
      "put 3 0 6236 6236\n";
  EXPECT_EQ(list, golden) << "actual:\n" << list;
  // Tracing moves no simulated timestamp.
  const auto [untraced, none] = small_traced_run(false);
  EXPECT_EQ(traced, untraced);
  EXPECT_EQ(none, "");
}

// Each of these used to pass construction and then abort mid-run (a
// negative delay) or time zero-cost WGs (non-positive pooling).
TEST(FusedEmbedding, RejectsNonPositivePoolingAtConstruction) {
  gpu::Machine m(intra_node(2));
  shmem::World w(m);
  for (const int pooling : {0, -4}) {
    auto cfg = small_config(2);
    cfg.functional = false;
    cfg.pooling = pooling;
    EXPECT_THROW(FusedEmbeddingAllToAll(w, cfg, nullptr), std::logic_error)
        << pooling;
    EXPECT_THROW(BaselineEmbeddingAllToAll(w, cfg, nullptr), std::logic_error)
        << pooling;
  }
}

// A zero batch used to run a zero-work operator (reported as 6000 ns
// fused, 22700 ns baseline); a negative one aborted mid-run.
TEST(FusedEmbedding, RejectsNonPositiveGlobalBatchAtConstruction) {
  gpu::Machine m(intra_node(4));
  shmem::World w(m);
  for (const int batch : {0, -32}) {
    auto cfg = small_config(4);
    cfg.functional = false;
    cfg.map.global_batch = batch;
    test::expect_both_reject<FusedEmbeddingAllToAll,
                             BaselineEmbeddingAllToAll>(
        w, cfg, "SliceMap::global_batch", batch);
  }
}

// 1024 tables x 2^22 samples is 2^32 logical WGs: the count used to wrap
// to 0 (signed overflow) on 4 PEs and both backends constructed; on 2 PEs
// the fused one threw from a Divisor of an overflowed block size.
TEST(FusedEmbedding, RejectsLogicalWgCountAboveIntMaxAtConstruction) {
  for (const int gpus : {2, 4}) {
    gpu::Machine m(intra_node(gpus));
    shmem::World w(m);
    auto cfg = small_config(gpus);
    cfg.functional = false;
    cfg.map.tables_per_pe = 1024;
    cfg.map.global_batch = 1 << 22;
    test::expect_both_reject<FusedEmbeddingAllToAll,
                             BaselineEmbeddingAllToAll>(
        w, cfg, "SliceMap::tables_per_pe", 1024);
    test::expect_both_reject<FusedEmbeddingAllToAll,
                             BaselineEmbeddingAllToAll>(
        w, cfg, "SliceMap::global_batch", 1 << 22);
  }
  // The largest accepted count, INT_MAX rounded down to whole slices.
  SliceMap map;
  map.num_pes = 1;
  map.tables_per_pe = 1;
  map.global_batch = (INT_MAX / 32) * 32;
  map.vectors_per_slice = 32;
  map.validate();
  const SliceIndex index(map);
  EXPECT_EQ(index.place(map.num_logical_wgs() - 1).lane, 31);
  EXPECT_EQ(index.dest_of(map.num_slices() - 1), 0);
}

// A negative override used to be read as "derive the slot count".
TEST(FusedEmbedding, RejectsNegativeSlotsOverrideAtConstruction) {
  gpu::Machine m(intra_node(2));
  shmem::World w(m);
  auto cfg = small_config(2);
  cfg.functional = false;
  cfg.occupancy_slots_override = -3;
  test::expect_both_reject<FusedEmbeddingAllToAll, BaselineEmbeddingAllToAll>(
      w, cfg, "EmbeddingA2AConfig::occupancy_slots_override", -3);
}

TEST(FusedEmbedding, DeterministicAcrossRuns) {
  const auto cfg = timing_config(2, 256, 8);
  auto run_once = [&] {
    gpu::Machine m(inter_node(2));
    shmem::World w(m);
    return FusedEmbeddingAllToAll(w, cfg, nullptr)
        .run_to_completion()
        .duration();
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace fcc::fused
