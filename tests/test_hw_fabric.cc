// Fabric model: endpoint-port contention, the Fig. 9 mechanism, driven
// through the fully-connected topology's write path.
#include <gtest/gtest.h>

#include "hw/topology.h"

namespace fcc::hw {
namespace {

FabricSpec spec_80() {
  FabricSpec s;
  s.port_bytes_per_ns = 80.0;
  s.latency_ns = 700;
  return s;
}

/// One node of `gpus` fully-connected GPUs.
FullyConnectedTopology node(int gpus) {
  return FullyConnectedTopology(1, gpus, spec_80(), {});
}

TEST(Fabric, SingleTransferTiming) {
  auto topo = node(4);
  // 8000 bytes at 80 B/ns = 100 ns + 700 latency.
  EXPECT_EQ(topo.write_time(0, 1, 8000, 0), 800);
}

TEST(Fabric, DisjointPairsDoNotContend) {
  auto topo = node(4);
  const TimeNs a = topo.write_time(0, 1, 8000, 0);
  const TimeNs b = topo.write_time(2, 3, 8000, 0);
  EXPECT_EQ(a, b);  // independent ports
}

TEST(Fabric, SharedEgressSerializes) {
  auto topo = node(4);
  const TimeNs a = topo.write_time(0, 1, 8000, 0);
  const TimeNs b = topo.write_time(0, 2, 8000, 0);  // same source port
  EXPECT_EQ(b - a, 100);
}

TEST(Fabric, SharedIngressSerializes) {
  auto topo = node(4);
  const TimeNs a = topo.write_time(1, 0, 8000, 0);
  const TimeNs b = topo.write_time(2, 0, 8000, 0);  // same destination port
  EXPECT_EQ(b - a, 100);
}

TEST(Fabric, AllToOneIncastSerializesFully) {
  auto topo = node(4);
  TimeNs last = 0;
  for (int src = 1; src < 4; ++src) {
    last = topo.write_time(src, 0, 80000, 0);
  }
  // 3 x 1000 ns serialized on GPU0's ingress + latency.
  EXPECT_EQ(last, 3000 + 700);
}

TEST(Fabric, SelfWriteNeverTouchesPorts) {
  auto topo = node(2);
  EXPECT_EQ(topo.write_time(1, 1, 10, 0), 0);
  const Fabric& f = *topo.node_fabric(0);
  for (int p = 0; p < 2; ++p) {
    EXPECT_EQ(f.egress(p).transfers(), 0);
    EXPECT_EQ(f.ingress(p).transfers(), 0);
  }
}

TEST(Fabric, TracksTotalBytes) {
  auto topo = node(2);
  topo.write_time(0, 1, 100, 0);
  topo.write_time(1, 0, 200, 0);
  EXPECT_EQ(topo.node_fabric(0)->total_bytes(), 300);
}

}  // namespace
}  // namespace fcc::hw
