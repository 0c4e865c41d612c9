// Collective timing goldens: every (collective, algorithm) on every fabric
// family, serial and sharded, run back-to-back and overlapping on two
// communicators over the same members.
//
// Each case pins both communicators' last_duration() and finish time, plus a
// link-state fingerprint taken after the run: the FNV-1a hash of the finish
// times of a 64 KiB write between every ordered PE pair, each issued at
// t = 0 behind whatever the collectives left reserved. A change to the
// order, size or ready time of any link reservation shows up here.
//
// A second table runs a sequence of collectives on ONE communicator: the
// same algorithm and size again, then after a change of algorithm or of
// size, in order or as two overlapping sequences on that communicator. Each
// row pins the last finish time and a hash of every call's last_duration()
// and finish time, plus the link fingerprint.
//
// A third table runs a baseline collective alongside fused PUT traffic: a
// two-node graph, the fused embedding+All-to-All next to the baseline
// GEMV+AllReduce (kAuto), on one executor. Each row pins both nodes' spans
// and the link fingerprint. Its sharded rows differ from the serial ones:
// a sharded machine runs the sweep at the next window barrier, after the
// PUTs issued later in that window have reserved their links.
//
// Further tests check that each ar_auto row is the fastest explicit row, and
// Communicator::price_all_reduce against real runs.
//
// FCC_GOLDEN ccl_schedule, ccl_schedule_repeat, ccl_schedule_mixed: on a
// mismatch the test prints the whole actual table in source form, for
// re-recording after an intended change.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "ccl/communicator.h"
#include "framework/graph_executor.h"
#include "fused/embedding_a2a.h"
#include "fused/gemv_allreduce.h"
#include "fused/op_runtime.h"
#include "gpu/machine.h"
#include "shmem/world.h"
#include "sim/task.h"

namespace fcc::ccl {
namespace {

constexpr std::int64_t kAllReduceElems = (1 << 18) + 123;
constexpr std::int64_t kChunkElems = 20007;
constexpr Bytes kProbeBytes = 64 * 1024;

enum class Coll {
  kArDirect,
  kArRing,
  kArHierarchical,
  kArAuto,
  kA2aPairwise,
  kA2av,
};

struct CollCase {
  const char* name;
  Coll coll;
  bool needs_hierarchy;  // forced hierarchical
};

constexpr CollCase kColls[] = {
    {"ar_direct", Coll::kArDirect, false},
    {"ar_ring", Coll::kArRing, false},
    {"ar_hier", Coll::kArHierarchical, true},
    {"ar_auto", Coll::kArAuto, false},
    {"a2a_pairwise", Coll::kA2aPairwise, false},
    {"a2av", Coll::kA2av, false},
};

struct Fabric {
  const char* name;
  gpu::Machine::Config config;
  std::vector<PeId> members;  // empty = every PE
};

gpu::Machine::Config shape(int nodes, int gpus,
                           hw::TopologySpec::Kind kind =
                               hw::TopologySpec::Kind::kFullyConnected) {
  gpu::Machine::Config c;
  c.num_nodes = nodes;
  c.gpus_per_node = gpus;
  c.topology.kind = kind;
  c.topology.torus.dim_x = 2;
  c.topology.torus.dim_y = 2;
  return c;
}

std::vector<Fabric> fabrics() {
  using K = hw::TopologySpec::Kind;
  return {
      {"fc1x4", shape(1, 4), {}},
      {"fc2x4", shape(2, 4), {}},
      {"fc4x2", shape(4, 2), {}},
      {"fc3x3", shape(3, 3), {}},
      {"fc2x4sub", shape(2, 4), {0, 1, 2, 5}},
      {"sw2x4", shape(2, 4, K::kSwitchedNode), {}},
      {"mr2x4", shape(2, 4, K::kMultiRail), {}},
      {"torus2x2g1", shape(4, 1, K::kTorus2D), {}},
      {"torus2x2g2", shape(4, 2, K::kTorus2D), {}},
  };
}

std::vector<PeId> members(const Fabric& f, gpu::Machine& m) {
  return f.members.empty() ? fused::all_pes(m) : f.members;
}

/// Ragged traffic matrix with empty segments (diagonal included).
std::vector<std::int64_t> a2av_counts(int n) {
  std::vector<std::int64_t> counts;
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) counts.push_back(((s * 5 + d * 3) % 4) * 1500);
  }
  return counts;
}

/// Launches `coll` at the standard sizes divided by `shrink`.
sim::Co launch(Communicator& c, Coll coll,
               const std::vector<std::int64_t>& counts, int shrink = 1) {
  const std::int64_t elems = kAllReduceElems / shrink;
  const std::int64_t chunk = kChunkElems / shrink;
  switch (coll) {
    case Coll::kArDirect:
      return c.all_reduce(elems, {}, AllReduceAlgo::kTwoPhaseDirect);
    case Coll::kArRing:
      return c.all_reduce(elems, {}, AllReduceAlgo::kRing);
    case Coll::kArHierarchical:
      return c.all_reduce(elems, {}, AllReduceAlgo::kHierarchical);
    case Coll::kArAuto:
      return c.all_reduce(elems, {});
    case Coll::kA2aPairwise:
      return c.all_to_all(chunk, {}, {});
    case Coll::kA2av:
      break;
  }
  return c.all_to_all_v(counts, {}, {});
}

struct Outcome {
  TimeNs dur_a = 0, fin_a = 0, dur_b = 0, fin_b = 0;
  std::uint64_t fingerprint = 0;
};

sim::Task back_to_back(sim::Engine& e, Communicator& a, Communicator& b,
                       Coll coll, const std::vector<std::int64_t>& counts,
                       Outcome& out) {
  co_await launch(a, coll, counts);
  out.fin_a = e.now();
  co_await launch(b, coll, counts);
  out.fin_b = e.now();
}

sim::Task one(sim::Engine& e, Communicator& c, Coll coll,
              const std::vector<std::int64_t>& counts, TimeNs& fin) {
  co_await launch(c, coll, counts);
  fin = e.now();
}

/// FNV-1a over the bytes of `times`.
std::uint64_t fnv(const std::vector<TimeNs>& times) {
  std::uint64_t h = 1469598103934665603ull;
  for (const TimeNs time : times) {
    const auto t = static_cast<std::uint64_t>(time);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (t >> (8 * byte)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::uint64_t link_fingerprint(gpu::Machine& m) {
  std::vector<TimeNs> times;
  for (PeId s = 0; s < m.num_pes(); ++s) {
    for (PeId d = 0; d < m.num_pes(); ++d) {
      times.push_back(m.remote_write_time(s, d, kProbeBytes, 0));
    }
  }
  return fnv(times);
}

Outcome run_case(const Fabric& f, int shards, bool overlap, Coll coll) {
  gpu::Machine::Config mc = f.config;
  mc.num_shards = shards;
  gpu::Machine m(mc);
  Communicator a(m, members(f, m));
  Communicator b(m, members(f, m));
  const auto counts = a2av_counts(a.size());
  Outcome out;
  if (overlap) {
    one(m.engine(), a, coll, counts, out.fin_a);
    one(m.engine(), b, coll, counts, out.fin_b);
  } else {
    back_to_back(m.engine(), a, b, coll, counts, out);
  }
  m.run_all(2);
  EXPECT_EQ(m.engine().live_tasks(), 0);
  out.dur_a = a.last_duration();
  out.dur_b = b.last_duration();
  out.fingerprint = link_fingerprint(m);
  return out;
}

struct Golden {
  const char* name;
  TimeNs dur_a, fin_a, dur_b, fin_b;
  std::uint64_t fingerprint;
};

// clang-format off
const Golden kGolden[] = {
    // FCC_GOLDEN ccl_schedule begin
    {"fc1x4/s1/b2b/ar_direct", 41969, 41969, 41969, 83938, 0x4569bc4103f6c031ull},
    {"fc1x4/s1/b2b/ar_ring", 35470, 35470, 35470, 70940, 0xa89026976ae8225full},
    {"fc1x4/s1/b2b/ar_auto", 35470, 35470, 35470, 70940, 0xa89026976ae8225full},
    {"fc1x4/s1/b2b/a2a_pairwise", 13700, 13700, 13700, 27400, 0x4c1aab25e5409ed7ull},
    {"fc1x4/s1/b2b/a2av", 11150, 11150, 11150, 22300, 0xc5ba6102a6424577ull},
    {"fc1x4/s1/overlap/ar_direct", 41969, 41969, 68193, 68193, 0x9033f532265d2737ull},
    {"fc1x4/s1/overlap/ar_ring", 35470, 35470, 60240, 60240, 0xcd2924ab2d50774full},
    {"fc1x4/s1/overlap/ar_auto", 35470, 35470, 60240, 60240, 0xcd2924ab2d50774full},
    {"fc1x4/s1/overlap/a2a_pairwise", 13700, 13700, 16700, 16700, 0x4c53e4d1539c0787ull},
    {"fc1x4/s1/overlap/a2av", 11150, 11150, 11600, 11600, 0xe5e605207220fbbfull},
    {"fc2x4/s1/b2b/ar_direct", 221574, 221574, 221574, 443148, 0x7d8638790df91443ull},
    {"fc2x4/s1/b2b/ar_ring", 128167, 128167, 128167, 256334, 0x3ef2e78648265a27ull},
    {"fc2x4/s1/b2b/ar_hier", 86341, 86341, 86341, 172682, 0x532b0d0c69caca93ull},
    {"fc2x4/s1/b2b/ar_auto", 86341, 86341, 86341, 172682, 0x532b0d0c69caca93ull},
    {"fc2x4/s1/b2b/a2a_pairwise", 75766, 75766, 75766, 151532, 0x566dc37c971d94bfull},
    {"fc2x4/s1/b2b/a2av", 18950, 18950, 18950, 37900, 0x90a56aeffca8c663ull},
    {"fc2x4/s1/overlap/ar_direct", 221574, 221574, 431398, 431398, 0x7a9c5aa7b9f793b3ull},
    {"fc2x4/s1/overlap/ar_ring", 128167, 128167, 244584, 244584, 0xa1abc5017f4d0dcfull},
    {"fc2x4/s1/overlap/ar_hier", 86341, 86341, 155426, 155426, 0xc7d2cb1aa19f340bull},
    {"fc2x4/s1/overlap/ar_auto", 86341, 86341, 155426, 155426, 0xc7d2cb1aa19f340bull},
    {"fc2x4/s1/overlap/a2a_pairwise", 75766, 75766, 139782, 139782, 0xda7e2d34c019b363ull},
    {"fc2x4/s1/overlap/a2av", 18950, 18950, 26150, 26150, 0xabd5dad3aa713f13ull},
    {"fc2x4/s2/b2b/ar_direct", 221574, 221574, 221574, 443148, 0x7d8638790df91443ull},
    {"fc2x4/s2/b2b/ar_ring", 128167, 128167, 128167, 256334, 0x3ef2e78648265a27ull},
    {"fc2x4/s2/b2b/ar_hier", 86341, 86341, 86341, 172682, 0x532b0d0c69caca93ull},
    {"fc2x4/s2/b2b/ar_auto", 86341, 86341, 86341, 172682, 0x532b0d0c69caca93ull},
    {"fc2x4/s2/b2b/a2a_pairwise", 75766, 75766, 75766, 151532, 0x566dc37c971d94bfull},
    {"fc2x4/s2/b2b/a2av", 18950, 18950, 18950, 37900, 0x90a56aeffca8c663ull},
    {"fc2x4/s2/overlap/ar_direct", 221574, 221574, 431398, 431398, 0x7a9c5aa7b9f793b3ull},
    {"fc2x4/s2/overlap/ar_ring", 128167, 128167, 244584, 244584, 0xa1abc5017f4d0dcfull},
    {"fc2x4/s2/overlap/ar_hier", 86341, 86341, 155426, 155426, 0xc7d2cb1aa19f340bull},
    {"fc2x4/s2/overlap/ar_auto", 86341, 86341, 155426, 155426, 0xc7d2cb1aa19f340bull},
    {"fc2x4/s2/overlap/a2a_pairwise", 75766, 75766, 139782, 139782, 0xda7e2d34c019b363ull},
    {"fc2x4/s2/overlap/a2av", 18950, 18950, 26150, 26150, 0xabd5dad3aa713f13ull},
    {"fc4x2/s1/b2b/ar_direct", 169118, 169118, 169118, 338236, 0xdd2c6b1d9dcac057ull},
    {"fc4x2/s1/b2b/ar_ring", 128167, 128167, 128167, 256334, 0xf082956c7eef5debull},
    {"fc4x2/s1/b2b/ar_hier", 106015, 106015, 106015, 212030, 0x6232a6c6d0936767ull},
    {"fc4x2/s1/b2b/ar_auto", 106015, 106015, 106015, 212030, 0x6232a6c6d0936767ull},
    {"fc4x2/s1/b2b/a2a_pairwise", 59762, 59762, 59762, 119524, 0xf8a808a15a2078ebull},
    {"fc4x2/s1/b2b/a2av", 17750, 17750, 17750, 35500, 0x8de1949fcb1f9c9bull},
    {"fc4x2/s1/overlap/ar_direct", 169118, 169118, 326486, 326486, 0x3cc9dc0cec0768c7ull},
    {"fc4x2/s1/overlap/ar_ring", 128167, 128167, 244584, 244584, 0xe2bd3ae4e7500c47ull},
    {"fc4x2/s1/overlap/ar_hier", 106015, 106015, 194773, 194773, 0x3f633ead5ff51bdfull},
    {"fc4x2/s1/overlap/ar_auto", 106015, 106015, 194773, 194773, 0x3f633ead5ff51bdfull},
    {"fc4x2/s1/overlap/a2a_pairwise", 59762, 59762, 107774, 107774, 0xa05100c660eb32abull},
    {"fc4x2/s1/overlap/a2av", 17750, 17750, 23750, 23750, 0xc67fab15a1203053ull},
    {"fc4x2/s2/b2b/ar_direct", 169118, 169118, 169118, 338236, 0xdd2c6b1d9dcac057ull},
    {"fc4x2/s2/b2b/ar_ring", 128167, 128167, 128167, 256334, 0xf082956c7eef5debull},
    {"fc4x2/s2/b2b/ar_hier", 106015, 106015, 106015, 212030, 0x6232a6c6d0936767ull},
    {"fc4x2/s2/b2b/ar_auto", 106015, 106015, 106015, 212030, 0x6232a6c6d0936767ull},
    {"fc4x2/s2/b2b/a2a_pairwise", 59762, 59762, 59762, 119524, 0xf8a808a15a2078ebull},
    {"fc4x2/s2/b2b/a2av", 17750, 17750, 17750, 35500, 0x8de1949fcb1f9c9bull},
    {"fc4x2/s2/overlap/ar_direct", 169118, 169118, 326486, 326486, 0x3cc9dc0cec0768c7ull},
    {"fc4x2/s2/overlap/ar_ring", 128167, 128167, 244584, 244584, 0xe2bd3ae4e7500c47ull},
    {"fc4x2/s2/overlap/ar_hier", 106015, 106015, 194773, 194773, 0x3f633ead5ff51bdfull},
    {"fc4x2/s2/overlap/ar_auto", 106015, 106015, 194773, 194773, 0x3f633ead5ff51bdfull},
    {"fc4x2/s2/overlap/a2a_pairwise", 59762, 59762, 107774, 107774, 0xa05100c660eb32abull},
    {"fc4x2/s2/overlap/a2av", 17750, 17750, 23750, 23750, 0xc67fab15a1203053ull},
    {"fc4x2/s4/b2b/ar_direct", 169118, 169118, 169118, 338236, 0xdd2c6b1d9dcac057ull},
    {"fc4x2/s4/b2b/ar_ring", 128167, 128167, 128167, 256334, 0xf082956c7eef5debull},
    {"fc4x2/s4/b2b/ar_hier", 106015, 106015, 106015, 212030, 0x6232a6c6d0936767ull},
    {"fc4x2/s4/b2b/ar_auto", 106015, 106015, 106015, 212030, 0x6232a6c6d0936767ull},
    {"fc4x2/s4/b2b/a2a_pairwise", 59762, 59762, 59762, 119524, 0xf8a808a15a2078ebull},
    {"fc4x2/s4/b2b/a2av", 17750, 17750, 17750, 35500, 0x8de1949fcb1f9c9bull},
    {"fc4x2/s4/overlap/ar_direct", 169118, 169118, 326486, 326486, 0x3cc9dc0cec0768c7ull},
    {"fc4x2/s4/overlap/ar_ring", 128167, 128167, 244584, 244584, 0xe2bd3ae4e7500c47ull},
    {"fc4x2/s4/overlap/ar_hier", 106015, 106015, 194773, 194773, 0x3f633ead5ff51bdfull},
    {"fc4x2/s4/overlap/ar_auto", 106015, 106015, 194773, 194773, 0x3f633ead5ff51bdfull},
    {"fc4x2/s4/overlap/a2a_pairwise", 59762, 59762, 107774, 107774, 0xa05100c660eb32abull},
    {"fc4x2/s4/overlap/a2av", 17750, 17750, 23750, 23750, 0xc67fab15a1203053ull},
    {"fc3x3/s1/b2b/ar_direct", 221558, 221558, 221558, 443116, 0x19b936154e63634cull},
    {"fc3x3/s1/b2b/ar_ring", 133144, 133144, 133144, 266288, 0x158350878f65af4full},
    {"fc3x3/s1/b2b/ar_hier", 101637, 101637, 101637, 203274, 0x9eb7f2c560680c72ull},
    {"fc3x3/s1/b2b/ar_auto", 101637, 101637, 101637, 203274, 0x9eb7f2c560680c72ull},
    {"fc3x3/s1/b2b/a2a_pairwise", 83768, 83768, 83768, 167536, 0xdb302d8b96ccbb80ull},
    {"fc3x3/s1/b2b/a2av", 20450, 20450, 20450, 40900, 0x7bccf4beb111ef79ull},
    {"fc3x3/s1/overlap/ar_direct", 221558, 221558, 431366, 431366, 0xafe1662582619083ull},
    {"fc3x3/s1/overlap/ar_ring", 133144, 133144, 254538, 254538, 0xf1394501219b018cull},
    {"fc3x3/s1/overlap/ar_hier", 101637, 101637, 188203, 188203, 0x7b2648ded7914cffull},
    {"fc3x3/s1/overlap/ar_auto", 101637, 101637, 188203, 188203, 0x7b2648ded7914cffull},
    {"fc3x3/s1/overlap/a2a_pairwise", 83768, 83768, 155786, 155786, 0x5222c0959b0bf62cull},
    {"fc3x3/s1/overlap/a2av", 20450, 20450, 29150, 29150, 0x37f714ad60b9358eull},
    {"fc3x3/s2/b2b/ar_direct", 221558, 221558, 221558, 443116, 0x19b936154e63634cull},
    {"fc3x3/s2/b2b/ar_ring", 133144, 133144, 133144, 266288, 0x158350878f65af4full},
    {"fc3x3/s2/b2b/ar_hier", 101637, 101637, 101637, 203274, 0x9eb7f2c560680c72ull},
    {"fc3x3/s2/b2b/ar_auto", 101637, 101637, 101637, 203274, 0x9eb7f2c560680c72ull},
    {"fc3x3/s2/b2b/a2a_pairwise", 83768, 83768, 83768, 167536, 0xdb302d8b96ccbb80ull},
    {"fc3x3/s2/b2b/a2av", 20450, 20450, 20450, 40900, 0x7bccf4beb111ef79ull},
    {"fc3x3/s2/overlap/ar_direct", 221558, 221558, 431366, 431366, 0xafe1662582619083ull},
    {"fc3x3/s2/overlap/ar_ring", 133144, 133144, 254538, 254538, 0xf1394501219b018cull},
    {"fc3x3/s2/overlap/ar_hier", 101637, 101637, 188203, 188203, 0x7b2648ded7914cffull},
    {"fc3x3/s2/overlap/ar_auto", 101637, 101637, 188203, 188203, 0x7b2648ded7914cffull},
    {"fc3x3/s2/overlap/a2a_pairwise", 83768, 83768, 155786, 155786, 0x5222c0959b0bf62cull},
    {"fc3x3/s2/overlap/a2av", 20450, 20450, 29150, 29150, 0x37f714ad60b9358eull},
    {"fc2x4sub/s1/b2b/ar_direct", 93245, 93245, 93245, 186490, 0xd22d95c174ce5be1ull},
    {"fc2x4sub/s1/b2b/ar_ring", 100780, 100780, 100780, 201560, 0x7cc5c7d3c1a3c193ull},
    {"fc2x4sub/s1/b2b/ar_auto", 93245, 93245, 93245, 186490, 0xd22d95c174ce5be1ull},
    {"fc2x4sub/s1/b2b/a2a_pairwise", 23753, 23753, 23753, 47506, 0x6ec9c0c2c8b9e1a7ull},
    {"fc2x4sub/s1/b2b/a2av", 13550, 13550, 13550, 27100, 0xd29841cd595629beull},
    {"fc2x4sub/s1/overlap/ar_direct", 93245, 93245, 171923, 171923, 0x0f6de595d5b329e5ull},
    {"fc2x4sub/s1/overlap/ar_ring", 100780, 100780, 189810, 189810, 0x811c6d3d1c4c7eebull},
    {"fc2x4sub/s1/overlap/ar_auto", 93245, 93245, 171923, 171923, 0x0f6de595d5b329e5ull},
    {"fc2x4sub/s1/overlap/a2a_pairwise", 23753, 23753, 35756, 35756, 0xd95cdb6c5e346b57ull},
    {"fc2x4sub/s1/overlap/a2av", 13550, 13550, 15350, 15350, 0xb68f5454d470c2f8ull},
    {"fc2x4sub/s2/b2b/ar_direct", 93245, 93245, 93245, 186490, 0xd22d95c174ce5be1ull},
    {"fc2x4sub/s2/b2b/ar_ring", 100780, 100780, 100780, 201560, 0x7cc5c7d3c1a3c193ull},
    {"fc2x4sub/s2/b2b/ar_auto", 93245, 93245, 93245, 186490, 0xd22d95c174ce5be1ull},
    {"fc2x4sub/s2/b2b/a2a_pairwise", 23753, 23753, 23753, 47506, 0x6ec9c0c2c8b9e1a7ull},
    {"fc2x4sub/s2/b2b/a2av", 13550, 13550, 13550, 27100, 0xd29841cd595629beull},
    {"fc2x4sub/s2/overlap/ar_direct", 93245, 93245, 171923, 171923, 0x0f6de595d5b329e5ull},
    {"fc2x4sub/s2/overlap/ar_ring", 100780, 100780, 189810, 189810, 0x811c6d3d1c4c7eebull},
    {"fc2x4sub/s2/overlap/ar_auto", 93245, 93245, 171923, 171923, 0x0f6de595d5b329e5ull},
    {"fc2x4sub/s2/overlap/a2a_pairwise", 23753, 23753, 35756, 35756, 0xd95cdb6c5e346b57ull},
    {"fc2x4sub/s2/overlap/a2av", 13550, 13550, 15350, 15350, 0xb68f5454d470c2f8ull},
    {"sw2x4/s1/b2b/ar_direct", 228480, 228480, 228480, 456960, 0xb323e50438b70147ull},
    {"sw2x4/s1/b2b/ar_ring", 156013, 156013, 156013, 312026, 0x53a4b258d02a4febull},
    {"sw2x4/s1/b2b/ar_hier", 88330, 88330, 88330, 176660, 0xe5bdd7a2244a412cull},
    {"sw2x4/s1/b2b/ar_auto", 88330, 88330, 88330, 176660, 0xe5bdd7a2244a412cull},
    {"sw2x4/s1/b2b/a2a_pairwise", 77116, 77116, 77116, 154232, 0xa1a31c8d154c9b9bull},
    {"sw2x4/s1/b2b/a2av", 19525, 19525, 19525, 39050, 0x25c9f9a4a116ec2bull},
    {"sw2x4/s1/overlap/ar_direct", 228480, 228480, 438304, 438304, 0xdddd838ae7b40b1eull},
    {"sw2x4/s1/overlap/ar_ring", 156013, 156013, 298287, 298287, 0xa73f3323e94822cfull},
    {"sw2x4/s1/overlap/ar_hier", 88330, 88330, 160915, 160915, 0x974af9b83277d480ull},
    {"sw2x4/s1/overlap/ar_auto", 88330, 88330, 160915, 160915, 0x974af9b83277d480ull},
    {"sw2x4/s1/overlap/a2a_pairwise", 77116, 77116, 141132, 141132, 0x12ee80e1a43a3ce7ull},
    {"sw2x4/s1/overlap/a2av", 19525, 19525, 26725, 26725, 0x66c98b6d0e25363full},
    {"sw2x4/s2/b2b/ar_direct", 228480, 228480, 228480, 456960, 0xb323e50438b70147ull},
    {"sw2x4/s2/b2b/ar_ring", 156013, 156013, 156013, 312026, 0x53a4b258d02a4febull},
    {"sw2x4/s2/b2b/ar_hier", 88330, 88330, 88330, 176660, 0xe5bdd7a2244a412cull},
    {"sw2x4/s2/b2b/ar_auto", 88330, 88330, 88330, 176660, 0xe5bdd7a2244a412cull},
    {"sw2x4/s2/b2b/a2a_pairwise", 77116, 77116, 77116, 154232, 0xa1a31c8d154c9b9bull},
    {"sw2x4/s2/b2b/a2av", 19525, 19525, 19525, 39050, 0x25c9f9a4a116ec2bull},
    {"sw2x4/s2/overlap/ar_direct", 228480, 228480, 438304, 438304, 0xdddd838ae7b40b1eull},
    {"sw2x4/s2/overlap/ar_ring", 156013, 156013, 298287, 298287, 0xa73f3323e94822cfull},
    {"sw2x4/s2/overlap/ar_hier", 88330, 88330, 160915, 160915, 0x974af9b83277d480ull},
    {"sw2x4/s2/overlap/ar_auto", 88330, 88330, 160915, 160915, 0x974af9b83277d480ull},
    {"sw2x4/s2/overlap/a2a_pairwise", 77116, 77116, 141132, 141132, 0x12ee80e1a43a3ce7ull},
    {"sw2x4/s2/overlap/a2av", 19525, 19525, 26725, 26725, 0x66c98b6d0e25363full},
    {"mr2x4/s1/b2b/ar_direct", 116662, 116662, 116662, 233324, 0x690feb27ceb221f3ull},
    {"mr2x4/s1/b2b/ar_ring", 128167, 128167, 128167, 256334, 0xf8df43072be9da1full},
    {"mr2x4/s1/b2b/ar_hier", 63391, 63391, 63391, 126782, 0xccac3fb91f312663ull},
    {"mr2x4/s1/b2b/ar_auto", 63391, 63391, 63391, 126782, 0xccac3fb91f312663ull},
    {"mr2x4/s1/b2b/a2a_pairwise", 43758, 43758, 43758, 87516, 0x593f4e27a15e9e43ull},
    {"mr2x4/s1/b2b/a2av", 15350, 15350, 15350, 30700, 0x48dfde1c5a8aa11bull},
    {"mr2x4/s1/overlap/ar_direct", 116662, 116662, 221574, 221574, 0x7d88c1dbf597040bull},
    {"mr2x4/s1/overlap/ar_ring", 128167, 128167, 244584, 244584, 0x3e0c0a7df7a65673ull},
    {"mr2x4/s1/overlap/ar_hier", 63391, 63391, 109526, 109526, 0xc16b1fc06a6b73abull},
    {"mr2x4/s1/overlap/ar_auto", 63391, 63391, 109526, 109526, 0xc16b1fc06a6b73abull},
    {"mr2x4/s1/overlap/a2a_pairwise", 43758, 43758, 75766, 75766, 0x144737b8678f8af3ull},
    {"mr2x4/s1/overlap/a2av", 15350, 15350, 18950, 18950, 0xb3dbd2496e154db7ull},
    {"mr2x4/s2/b2b/ar_direct", 116662, 116662, 116662, 233324, 0x690feb27ceb221f3ull},
    {"mr2x4/s2/b2b/ar_ring", 128167, 128167, 128167, 256334, 0xf8df43072be9da1full},
    {"mr2x4/s2/b2b/ar_hier", 63391, 63391, 63391, 126782, 0xccac3fb91f312663ull},
    {"mr2x4/s2/b2b/ar_auto", 63391, 63391, 63391, 126782, 0xccac3fb91f312663ull},
    {"mr2x4/s2/b2b/a2a_pairwise", 43758, 43758, 43758, 87516, 0x593f4e27a15e9e43ull},
    {"mr2x4/s2/b2b/a2av", 15350, 15350, 15350, 30700, 0x48dfde1c5a8aa11bull},
    {"mr2x4/s2/overlap/ar_direct", 116662, 116662, 221574, 221574, 0x7d88c1dbf597040bull},
    {"mr2x4/s2/overlap/ar_ring", 128167, 128167, 244584, 244584, 0x3e0c0a7df7a65673ull},
    {"mr2x4/s2/overlap/ar_hier", 63391, 63391, 109526, 109526, 0xc16b1fc06a6b73abull},
    {"mr2x4/s2/overlap/ar_auto", 63391, 63391, 109526, 109526, 0xc16b1fc06a6b73abull},
    {"mr2x4/s2/overlap/a2a_pairwise", 43758, 43758, 75766, 75766, 0x144737b8678f8af3ull},
    {"mr2x4/s2/overlap/a2av", 15350, 15350, 18950, 18950, 0xb3dbd2496e154db7ull},
    {"torus2x2g1/s1/b2b/ar_direct", 55131, 55131, 55131, 110262, 0x252320e730c303b3ull},
    {"torus2x2g1/s1/b2b/ar_ring", 82948, 82948, 82948, 165896, 0x340455754c60b57bull},
    {"torus2x2g1/s1/b2b/ar_auto", 55131, 55131, 55131, 110262, 0x252320e730c303b3ull},
    {"torus2x2g1/s1/b2b/a2a_pairwise", 17802, 17802, 17802, 35604, 0x38ae923798b6cf13ull},
    {"torus2x2g1/s1/b2b/a2av", 12360, 12360, 12360, 24720, 0x00204a189e95bdc3ull},
    {"torus2x2g1/s1/overlap/ar_direct", 55131, 55131, 98862, 98862, 0xe90858f26bbc5d0full},
    {"torus2x2g1/s1/overlap/ar_ring", 82948, 82948, 154496, 154496, 0xead70ba61f0069ebull},
    {"torus2x2g1/s1/overlap/ar_auto", 55131, 55131, 98862, 98862, 0xe90858f26bbc5d0full},
    {"torus2x2g1/s1/overlap/a2a_pairwise", 17802, 17802, 24204, 24204, 0x839f74c6742519bfull},
    {"torus2x2g1/s1/overlap/a2av", 12360, 12360, 13320, 13320, 0xf2917a6885cb95afull},
    {"torus2x2g1/s2/b2b/ar_direct", 55131, 55131, 55131, 110262, 0x252320e730c303b3ull},
    {"torus2x2g1/s2/b2b/ar_ring", 82948, 82948, 82948, 165896, 0x340455754c60b57bull},
    {"torus2x2g1/s2/b2b/ar_auto", 55131, 55131, 55131, 110262, 0x252320e730c303b3ull},
    {"torus2x2g1/s2/b2b/a2a_pairwise", 17802, 17802, 17802, 35604, 0x38ae923798b6cf13ull},
    {"torus2x2g1/s2/b2b/a2av", 12360, 12360, 12360, 24720, 0x00204a189e95bdc3ull},
    {"torus2x2g1/s2/overlap/ar_direct", 55131, 55131, 98862, 98862, 0xe90858f26bbc5d0full},
    {"torus2x2g1/s2/overlap/ar_ring", 82948, 82948, 154496, 154496, 0xead70ba61f0069ebull},
    {"torus2x2g1/s2/overlap/ar_auto", 55131, 55131, 98862, 98862, 0xe90858f26bbc5d0full},
    {"torus2x2g1/s2/overlap/a2a_pairwise", 17802, 17802, 24204, 24204, 0x839f74c6742519bfull},
    {"torus2x2g1/s2/overlap/a2av", 12360, 12360, 13320, 13320, 0xf2917a6885cb95afull},
    {"torus2x2g1/s4/b2b/ar_direct", 55131, 55131, 55131, 110262, 0x252320e730c303b3ull},
    {"torus2x2g1/s4/b2b/ar_ring", 82948, 82948, 82948, 165896, 0x340455754c60b57bull},
    {"torus2x2g1/s4/b2b/ar_auto", 55131, 55131, 55131, 110262, 0x252320e730c303b3ull},
    {"torus2x2g1/s4/b2b/a2a_pairwise", 17802, 17802, 17802, 35604, 0x38ae923798b6cf13ull},
    {"torus2x2g1/s4/b2b/a2av", 12360, 12360, 12360, 24720, 0x00204a189e95bdc3ull},
    {"torus2x2g1/s4/overlap/ar_direct", 55131, 55131, 98862, 98862, 0xe90858f26bbc5d0full},
    {"torus2x2g1/s4/overlap/ar_ring", 82948, 82948, 154496, 154496, 0xead70ba61f0069ebull},
    {"torus2x2g1/s4/overlap/ar_auto", 55131, 55131, 98862, 98862, 0xe90858f26bbc5d0full},
    {"torus2x2g1/s4/overlap/a2a_pairwise", 17802, 17802, 24204, 24204, 0x839f74c6742519bfull},
    {"torus2x2g1/s4/overlap/a2av", 12360, 12360, 13320, 13320, 0xf2917a6885cb95afull},
    {"torus2x2g2/s1/b2b/ar_direct", 95320, 95320, 95320, 190640, 0x807be3a368acbfc3ull},
    {"torus2x2g2/s1/b2b/ar_ring", 104899, 104899, 104899, 209798, 0xadc443cd8372d4b3ull},
    {"torus2x2g2/s1/b2b/ar_hier", 89921, 89921, 89921, 179842, 0x5733df0224839a03ull},
    {"torus2x2g2/s1/b2b/ar_auto", 89921, 89921, 89921, 179842, 0x5733df0224839a03ull},
    {"torus2x2g2/s1/b2b/a2a_pairwise", 37008, 37008, 37008, 74016, 0x4180084841b4d5d3ull},
    {"torus2x2g2/s1/b2b/a2av", 15240, 15240, 15240, 30480, 0x21dc7c47ad33fb0bull},
    {"torus2x2g2/s1/overlap/ar_direct", 95320, 95320, 179240, 179240, 0xef8962e67995a55full},
    {"torus2x2g2/s1/overlap/ar_ring", 104899, 104899, 198398, 198398, 0xa465315e23ff50cfull},
    {"torus2x2g2/s1/overlap/ar_hier", 89921, 89921, 163897, 163897, 0xa50bfc8d2aa9135bull},
    {"torus2x2g2/s1/overlap/ar_auto", 89921, 89921, 163897, 163897, 0xa50bfc8d2aa9135bull},
    {"torus2x2g2/s1/overlap/a2a_pairwise", 37008, 37008, 62616, 62616, 0x24a0001340d5816full},
    {"torus2x2g2/s1/overlap/a2av", 15240, 15240, 19080, 19080, 0x560dd598fc078efbull},
    {"torus2x2g2/s2/b2b/ar_direct", 95320, 95320, 95320, 190640, 0x807be3a368acbfc3ull},
    {"torus2x2g2/s2/b2b/ar_ring", 104899, 104899, 104899, 209798, 0xadc443cd8372d4b3ull},
    {"torus2x2g2/s2/b2b/ar_hier", 89921, 89921, 89921, 179842, 0x5733df0224839a03ull},
    {"torus2x2g2/s2/b2b/ar_auto", 89921, 89921, 89921, 179842, 0x5733df0224839a03ull},
    {"torus2x2g2/s2/b2b/a2a_pairwise", 37008, 37008, 37008, 74016, 0x4180084841b4d5d3ull},
    {"torus2x2g2/s2/b2b/a2av", 15240, 15240, 15240, 30480, 0x21dc7c47ad33fb0bull},
    {"torus2x2g2/s2/overlap/ar_direct", 95320, 95320, 179240, 179240, 0xef8962e67995a55full},
    {"torus2x2g2/s2/overlap/ar_ring", 104899, 104899, 198398, 198398, 0xa465315e23ff50cfull},
    {"torus2x2g2/s2/overlap/ar_hier", 89921, 89921, 163897, 163897, 0xa50bfc8d2aa9135bull},
    {"torus2x2g2/s2/overlap/ar_auto", 89921, 89921, 163897, 163897, 0xa50bfc8d2aa9135bull},
    {"torus2x2g2/s2/overlap/a2a_pairwise", 37008, 37008, 62616, 62616, 0x24a0001340d5816full},
    {"torus2x2g2/s2/overlap/a2av", 15240, 15240, 19080, 19080, 0x560dd598fc078efbull},
    {"torus2x2g2/s4/b2b/ar_direct", 95320, 95320, 95320, 190640, 0x807be3a368acbfc3ull},
    {"torus2x2g2/s4/b2b/ar_ring", 104899, 104899, 104899, 209798, 0xadc443cd8372d4b3ull},
    {"torus2x2g2/s4/b2b/ar_hier", 89921, 89921, 89921, 179842, 0x5733df0224839a03ull},
    {"torus2x2g2/s4/b2b/ar_auto", 89921, 89921, 89921, 179842, 0x5733df0224839a03ull},
    {"torus2x2g2/s4/b2b/a2a_pairwise", 37008, 37008, 37008, 74016, 0x4180084841b4d5d3ull},
    {"torus2x2g2/s4/b2b/a2av", 15240, 15240, 15240, 30480, 0x21dc7c47ad33fb0bull},
    {"torus2x2g2/s4/overlap/ar_direct", 95320, 95320, 179240, 179240, 0xef8962e67995a55full},
    {"torus2x2g2/s4/overlap/ar_ring", 104899, 104899, 198398, 198398, 0xa465315e23ff50cfull},
    {"torus2x2g2/s4/overlap/ar_hier", 89921, 89921, 163897, 163897, 0xa50bfc8d2aa9135bull},
    {"torus2x2g2/s4/overlap/ar_auto", 89921, 89921, 163897, 163897, 0xa50bfc8d2aa9135bull},
    {"torus2x2g2/s4/overlap/a2a_pairwise", 37008, 37008, 62616, 62616, 0x24a0001340d5816full},
    {"torus2x2g2/s4/overlap/a2av", 15240, 15240, 19080, 19080, 0x560dd598fc078efbull},
    // FCC_GOLDEN ccl_schedule end
};
// clang-format on

TEST(CclSchedule, EveryCollectiveMatchesGolden) {
  std::map<std::string, const Golden*> golden;
  for (const Golden& g : kGolden) golden[g.name] = &g;

  std::ostringstream table;
  std::size_t cases = 0;
  bool all_match = true;
  for (const Fabric& f : fabrics()) {
    gpu::Machine probe(f.config);
    const bool eligible =
        Communicator(probe, members(f, probe)).hierarchy_eligible();
    for (int shards : {1, 2, 4}) {
      if (shards > f.config.num_nodes) continue;
      for (bool overlap : {false, true}) {
        for (const CollCase& c : kColls) {
          if (c.needs_hierarchy && !eligible) continue;
          const std::string name = std::string(f.name) + "/s" +
                                   std::to_string(shards) +
                                   (overlap ? "/overlap/" : "/b2b/") + c.name;
          const Outcome o = run_case(f, shards, overlap, c.coll);
          char line[256];
          std::snprintf(line, sizeof line,
                        "    {\"%s\", %lld, %lld, %lld, %lld, 0x%016llxull},\n",
                        name.c_str(), static_cast<long long>(o.dur_a),
                        static_cast<long long>(o.fin_a),
                        static_cast<long long>(o.dur_b),
                        static_cast<long long>(o.fin_b),
                        static_cast<unsigned long long>(o.fingerprint));
          table << line;
          ++cases;
          const auto it = golden.find(name);
          const bool match =
              it != golden.end() && it->second->dur_a == o.dur_a &&
              it->second->fin_a == o.fin_a && it->second->dur_b == o.dur_b &&
              it->second->fin_b == o.fin_b &&
              it->second->fingerprint == o.fingerprint;
          EXPECT_TRUE(match) << name << " actual: " << line;
          all_match = all_match && match;
        }
      }
    }
  }
  EXPECT_EQ(cases, golden.size());
  if (!all_match || cases != golden.size()) {
    ADD_FAILURE() << "actual table:\n" << table.str();
  }
}

// On every fabric, shard count and mode, the ar_auto row is the row of the
// fastest explicit AllReduce (ties in direct, ring, hierarchical order).
TEST(CclSchedule, AutoRowIsTheFastestExplicitRow) {
  std::map<std::string, const Golden*> golden;
  for (const Golden& g : kGolden) golden[g.name] = &g;
  std::size_t autos = 0;
  for (const auto& [name, g] : golden) {
    const std::size_t slash = name.rfind('/');
    if (name.substr(slash + 1) != "ar_auto") continue;
    ++autos;
    const std::string prefix = name.substr(0, slash + 1);
    const Golden* fastest = nullptr;
    for (const char* algo : {"ar_direct", "ar_ring", "ar_hier"}) {
      const auto it = golden.find(prefix + algo);
      if (it != golden.end() &&
          (fastest == nullptr || it->second->dur_a < fastest->dur_a)) {
        fastest = it->second;
      }
    }
    ASSERT_NE(fastest, nullptr) << name;
    EXPECT_EQ(std::tuple(g->dur_a, g->fin_a, g->dur_b, g->fin_b,
                         g->fingerprint),
              std::tuple(fastest->dur_a, fastest->fin_a, fastest->dur_b,
                         fastest->fin_b, fastest->fingerprint))
        << name << " vs " << fastest->name;
  }
  EXPECT_GT(autos, 0u);
}

// price_all_reduce's idle-machine price is the last_duration() of the same
// AllReduce run on a fresh machine, for every algorithm the span can run,
// and asking twice prices the same.
TEST(CclSchedule, AllReducePriceIsAFreshRunsDuration) {
  constexpr AllReduceAlgo kAlgos[] = {
      AllReduceAlgo::kTwoPhaseDirect, AllReduceAlgo::kRing,
      AllReduceAlgo::kHierarchical, AllReduceAlgo::kAuto};
  constexpr Coll kRuns[] = {Coll::kArDirect, Coll::kArRing,
                            Coll::kArHierarchical, Coll::kArAuto};
  for (const Fabric& f : fabrics()) {
    if (!f.members.empty()) continue;  // prices span every PE
    SCOPED_TRACE(f.name);
    const auto prices = Communicator::price_all_reduce(
        f.config, kAllReduceElems, kAlgos);
    EXPECT_EQ(Communicator::price_all_reduce(f.config, kAllReduceElems,
                                             kAlgos),
              prices);
    ASSERT_EQ(prices.size(), std::size(kAlgos));
    for (std::size_t i = 0; i < std::size(kAlgos); ++i) {
      gpu::Machine machine(f.config);
      Communicator comm(machine, fused::all_pes(machine));
      if (kAlgos[i] == AllReduceAlgo::kHierarchical &&
          !comm.hierarchy_eligible()) {
        EXPECT_FALSE(prices[i].has_value());
        continue;
      }
      TimeNs fin = 0;
      one(machine.engine(), comm, kRuns[i], {}, fin);
      machine.engine().run();
      ASSERT_TRUE(prices[i].has_value()) << i;
      EXPECT_EQ(*prices[i], comm.last_duration()) << i;
    }
  }
}

/// One communicator's calls, in order: repeats of the same algorithm and
/// size, then changes of algorithm or of size (`shrink` divides the
/// standard sizes). kAuto runs the fastest AllReduce for the span and size.
struct Call {
  Coll coll;
  int shrink;
};
constexpr Call kSequence[] = {
    {Coll::kArDirect, 1},     {Coll::kArDirect, 1},     {Coll::kArRing, 1},
    {Coll::kArDirect, 1},     {Coll::kArDirect, 3},     {Coll::kArAuto, 3},
    {Coll::kArAuto, 3},       {Coll::kA2aPairwise, 1},  {Coll::kA2aPairwise, 1},
    {Coll::kA2aPairwise, 1},  {Coll::kA2aPairwise, 2},  {Coll::kA2av, 1},
    {Coll::kA2av, 1},         {Coll::kA2aPairwise, 2},
};

/// Runs kSequence on `c` (backwards when `reverse`), appending each call's
/// last_duration() and finish time to `trace`.
sim::Task sequence(sim::Engine& e, Communicator& c, bool reverse,
                   const std::vector<std::int64_t>& counts,
                   std::vector<TimeNs>& trace) {
  const int n = static_cast<int>(std::size(kSequence));
  for (int i = 0; i < n; ++i) {
    const Call& call = kSequence[reverse ? n - 1 - i : i];
    co_await launch(c, call.coll, counts, call.shrink);
    trace.push_back(c.last_duration());
    trace.push_back(e.now());
  }
}

struct RepeatGolden {
  const char* name;
  TimeNs finish;
  std::uint64_t trace, fingerprint;
};

// clang-format off
const RepeatGolden kRepeatGolden[] = {
    // FCC_GOLDEN ccl_schedule_repeat begin
    {"fc1x4/s1/seq", 313354, 0xe5e985aeefb843a5ull, 0x4849f2d1a111dbe7ull},
    {"fc1x4/s1/overlap", 454108, 0x59edbf22c476aec5ull, 0xf914b862ef0cb871ull},
    {"fc2x4/s1/seq", 1302425, 0xac852060c5fd4fb0ull, 0xdf2b38e5e449315bull},
    {"fc2x4/s1/overlap", 2272544, 0x59ccbac0168abfeaull, 0x0b89cbc5e3ffd4c3ull},
    {"fc2x4/s2/seq", 1302425, 0xac852060c5fd4fb0ull, 0xdf2b38e5e449315bull},
    {"fc2x4/s2/overlap", 2272544, 0xba67fe521c3c2a2bull, 0x0b89cbc5e3ffd4c3ull},
    {"fc4x2/s1/seq", 1074265, 0xa2924bd1c5953492ull, 0x2205024da39f20b7ull},
    {"fc4x2/s1/overlap", 1829768, 0x3caf3211b0925e95ull, 0x6504ec7c55702d06ull},
    {"fc4x2/s2/seq", 1074265, 0xa2924bd1c5953492ull, 0x2205024da39f20b7ull},
    {"fc4x2/s2/overlap", 1829768, 0x1802e3777943f887ull, 0x6504ec7c55702d06ull},
    {"fc4x2/s4/seq", 1074265, 0xa2924bd1c5953492ull, 0x2205024da39f20b7ull},
    {"fc4x2/s4/overlap", 1829768, 0x1802e3777943f887ull, 0x6504ec7c55702d06ull},
    {"fc3x3/s1/seq", 1352556, 0x5dbf99b6a9f232cfull, 0xaed5a99717a9051full},
    {"fc3x3/s1/overlap", 2369726, 0x0ee96556a9a8b313ull, 0xa0d5d596f6c9abc5ull},
    {"fc3x3/s2/seq", 1352556, 0x5dbf99b6a9f232cfull, 0xaed5a99717a9051full},
    {"fc3x3/s2/overlap", 2369726, 0x7abc4235decc8e20ull, 0xa0d5d596f6c9abc5ull},
    {"fc2x4sub/s1/seq", 634626, 0x5423b8e366aa2af7ull, 0x6628ec61fa6c0223ull},
    {"fc2x4sub/s1/overlap", 1013525, 0x06c892836472aa52ull, 0x8f4e8945fb0120f2ull},
    {"fc2x4sub/s2/seq", 634626, 0x5423b8e366aa2af7ull, 0x6628ec61fa6c0223ull},
    {"fc2x4sub/s2/overlap", 1013525, 0xe49eae7d8d7ff039ull, 0x8f4e8945fb0120f2ull},
    {"sw2x4/s1/seq", 1362215, 0xadcb9c703fa9f683ull, 0x7448b4f899f235b7ull},
    {"sw2x4/s1/overlap", 2374470, 0xad340243801d42d5ull, 0x707c9a96fe6426e7ull},
    {"sw2x4/s2/seq", 1362215, 0xadcb9c703fa9f683ull, 0x7448b4f899f235b7ull},
    {"sw2x4/s2/overlap", 2374470, 0xcd9ee1b6eb1b4b99ull, 0x707c9a96fe6426e7ull},
    {"mr2x4/s1/seq", 802171, 0x2388f74d25c4fa48ull, 0x28f2663fdab4bf47ull},
    {"mr2x4/s1/overlap", 1294088, 0x3dd1f01398024e60ull, 0x16cceb2ff373016bull},
    {"mr2x4/s2/seq", 802171, 0x2388f74d25c4fa48ull, 0x28f2663fdab4bf47ull},
    {"mr2x4/s2/overlap", 1294088, 0x45a986d613dd441full, 0x16cceb2ff373016bull},
    {"torus2x2g1/s1/seq", 434999, 0x20c21f0dc3d1182bull, 0x783a4aac328645efull},
    {"torus2x2g1/s1/overlap", 662448, 0x89867ff6fdf145f1ull, 0xbc65908870da0e0full},
    {"torus2x2g1/s2/seq", 434999, 0x20c21f0dc3d1182bull, 0x783a4aac328645efull},
    {"torus2x2g1/s2/overlap", 662448, 0x6b59b8e6568449f9ull, 0xbc65908870da0e0full},
    {"torus2x2g1/s4/seq", 434999, 0x20c21f0dc3d1182bull, 0x783a4aac328645efull},
    {"torus2x2g1/s4/overlap", 662448, 0x6b59b8e6568449f9ull, 0xbc65908870da0e0full},
    {"torus2x2g2/s1/seq", 697139, 0xe792fb9fbb5ecc02ull, 0x203071f75503180full},
    {"torus2x2g2/s1/overlap", 1092206, 0xac9d55ee8c707215ull, 0x30bfaee572bac78full},
    {"torus2x2g2/s2/seq", 697139, 0xe792fb9fbb5ecc02ull, 0x203071f75503180full},
    {"torus2x2g2/s2/overlap", 1092206, 0xde891c0236e46a0eull, 0x30bfaee572bac78full},
    {"torus2x2g2/s4/seq", 697139, 0xe792fb9fbb5ecc02ull, 0x203071f75503180full},
    {"torus2x2g2/s4/overlap", 1092206, 0xde891c0236e46a0eull, 0x30bfaee572bac78full},
    // FCC_GOLDEN ccl_schedule_repeat end
};
// clang-format on

TEST(CclSchedule, RepeatedCallsOnOneCommunicatorMatchGolden) {
  std::map<std::string, const RepeatGolden*> golden;
  for (const RepeatGolden& g : kRepeatGolden) golden[g.name] = &g;

  std::ostringstream table;
  std::size_t cases = 0;
  bool all_match = true;
  for (const Fabric& f : fabrics()) {
    for (int shards : {1, 2, 4}) {
      if (shards > f.config.num_nodes) continue;
      for (bool overlap : {false, true}) {
        const std::string name = std::string(f.name) + "/s" +
                                 std::to_string(shards) +
                                 (overlap ? "/overlap" : "/seq");
        gpu::Machine::Config mc = f.config;
        mc.num_shards = shards;
        gpu::Machine m(mc);
        Communicator c(m, members(f, m));
        const auto counts = a2av_counts(c.size());
        std::vector<TimeNs> trace, reversed;
        sequence(m.engine(), c, false, counts, trace);
        if (overlap) sequence(m.engine(), c, true, counts, reversed);
        m.run_all(2);
        EXPECT_EQ(m.engine().live_tasks(), 0);
        const TimeNs finish =
            std::max(trace.back(), overlap ? reversed.back() : 0);
        trace.insert(trace.end(), reversed.begin(), reversed.end());
        const std::uint64_t hash = fnv(trace);
        const std::uint64_t fingerprint = link_fingerprint(m);
        char line[256];
        std::snprintf(line, sizeof line, "    {\"%s\", %lld, 0x%016llxull, "
                      "0x%016llxull},\n", name.c_str(),
                      static_cast<long long>(finish),
                      static_cast<unsigned long long>(hash),
                      static_cast<unsigned long long>(fingerprint));
        table << line;
        ++cases;
        const auto it = golden.find(name);
        const bool match = it != golden.end() &&
                           it->second->finish == finish &&
                           it->second->trace == hash &&
                           it->second->fingerprint == fingerprint;
        EXPECT_TRUE(match) << name << " actual: " << line;
        all_match = all_match && match;
      }
    }
  }
  EXPECT_EQ(cases, golden.size());
  if (!all_match || cases != golden.size()) {
    ADD_FAILURE() << "actual table:\n" << table.str();
  }
}

/// The mixed graph's two independent nodes on `n` PEs: the fused embedding
/// exchange, and a baseline GEMV whose AllReduce overlaps its PUTs.
fw::Graph mixed_graph(int n) {
  fused::EmbeddingA2AConfig emb;
  emb.map.num_pes = n;
  emb.map.tables_per_pe = 4;
  emb.map.global_batch = 128;
  emb.map.dim = 64;
  emb.map.vectors_per_slice = 8;
  emb.pooling = 512;
  fused::GemvAllReduceConfig gemv;
  gemv.m = 4096;
  gemv.k_global = 1024;
  gemv.allreduce_algo = AllReduceAlgo::kAuto;
  fw::Graph g;
  g.add("fcc::embedding_a2a", emb, {}, {g.tensor("pooled")}, "emb");
  g.add("fcc::gemv_allreduce", gemv, {}, {g.tensor("y")}, "gemv");
  return g;
}

sim::Task run_graph(sim::Engine&, fw::GraphExecutor& executor) {
  co_await executor.run();
}

struct MixedGolden {
  const char* name;
  TimeNs emb_start, emb_end, gemv_start, gemv_end;
  std::uint64_t fingerprint;
};

// clang-format off
const MixedGolden kMixedGolden[] = {
    // FCC_GOLDEN ccl_schedule_mixed begin
    {"fc2x4/s1", 0, 82099, 0, 39054, 0xce819dab4f14756bull},
    {"fc2x4/s2", 0, 82099, 0, 40054, 0xce819dab4f14756bull},
    {"torus2x2g1/s1", 0, 53623, 0, 33064, 0x0d934ec19d04c747ull},
    {"torus2x2g1/s2", 0, 53623, 0, 33313, 0x0d934ec19d04c747ull},
    {"torus2x2g1/s4", 0, 53623, 0, 33313, 0x0d934ec19d04c747ull},
    // FCC_GOLDEN ccl_schedule_mixed end
};
// clang-format on

TEST(CclSchedule, CollectiveOverlappingFusedPutsMatchesGolden) {
  std::map<std::string, const MixedGolden*> golden;
  for (const MixedGolden& g : kMixedGolden) golden[g.name] = &g;

  std::ostringstream table;
  std::size_t cases = 0;
  bool all_match = true;
  for (const Fabric& f : fabrics()) {
    if (std::string(f.name) != "fc2x4" && std::string(f.name) != "torus2x2g1") {
      continue;
    }
    for (int shards : {1, 2, 4}) {
      if (shards > f.config.num_nodes) continue;
      const std::string name =
          std::string(f.name) + "/s" + std::to_string(shards);
      gpu::Machine::Config mc = f.config;
      mc.num_shards = shards;
      gpu::Machine m(mc);
      shmem::World world(m);
      const fw::Graph g = mixed_graph(m.num_pes());
      fw::GraphExecutor executor(
          world, g, {fw::Backend::kFused, fw::Backend::kBaseline});
      run_graph(m.engine(), executor);
      m.run_all();
      EXPECT_EQ(m.engine().live_tasks(), 0);
      const fw::GraphResult r = executor.result();
      const fused::OperatorResult& emb = r.nodes.at(0).result;
      const fused::OperatorResult& gemv = r.nodes.at(1).result;
      const std::uint64_t fingerprint = link_fingerprint(m);
      char line[256];
      std::snprintf(line, sizeof line,
                    "    {\"%s\", %lld, %lld, %lld, %lld, 0x%016llxull},\n",
                    name.c_str(), static_cast<long long>(emb.start),
                    static_cast<long long>(emb.end),
                    static_cast<long long>(gemv.start),
                    static_cast<long long>(gemv.end),
                    static_cast<unsigned long long>(fingerprint));
      table << line;
      ++cases;
      const auto it = golden.find(name);
      const bool match =
          it != golden.end() && it->second->emb_start == emb.start &&
          it->second->emb_end == emb.end &&
          it->second->gemv_start == gemv.start &&
          it->second->gemv_end == gemv.end &&
          it->second->fingerprint == fingerprint;
      EXPECT_TRUE(match) << name << " actual: " << line;
      all_match = all_match && match;
    }
  }
  EXPECT_EQ(cases, golden.size());
  if (!all_match || cases != golden.size()) {
    ADD_FAILURE() << "actual table:\n" << table.str();
  }
}

}  // namespace
}  // namespace fcc::ccl
