// Link and NIC models: serialization, latency, FIFO contention.
#include <gtest/gtest.h>

#include "hw/link.h"
#include "hw/nic.h"

namespace fcc::hw {
namespace {

TEST(Link, UncontendedTransferIsBytesOverBandwidthPlusLatency) {
  Link l("l", /*bytes_per_ns=*/10.0, /*latency_ns=*/100);
  // 1000 bytes at 10 B/ns -> 100 ns occupancy + 100 ns latency.
  EXPECT_EQ(l.submit(/*ready=*/0, /*bytes=*/1000), 200);
}

TEST(Link, BackToBackTransfersSerialize) {
  Link l("l", 10.0, 0);
  EXPECT_EQ(l.submit(0, 1000), 100);
  // Submitted at the same time: queues behind the first.
  EXPECT_EQ(l.submit(0, 1000), 200);
  // Submitted later than the horizon: starts immediately.
  EXPECT_EQ(l.submit(500, 1000), 600);
}

TEST(Link, ZeroByteTransferCostsOnlyLatency) {
  Link l("l", 10.0, 42);
  EXPECT_EQ(l.submit(7, 0), 49);
}

TEST(Link, TracksUtilizationStats) {
  Link l("l", 10.0, 0);
  l.submit(0, 1000);
  l.submit(0, 500);
  EXPECT_EQ(l.total_bytes(), 1500);
  EXPECT_EQ(l.busy_ns(), 150);
  EXPECT_EQ(l.transfers(), 2);
}

TEST(Link, GapsDoNotAccumulateBusyTime) {
  Link l("l", 1.0, 0);
  l.submit(0, 10);
  l.submit(100, 10);
  EXPECT_EQ(l.busy_ns(), 20);
}

TEST(Link, ZeroByteTransferAddsNoOccupancy) {
  // Zero-byte delivery is latency-only: the link horizon and busy time
  // must be untouched so later transfers are not pushed back.
  Link l("l", 10.0, 42);
  EXPECT_EQ(l.submit(100, 0), 142);
  EXPECT_EQ(l.busy_ns(), 0);
  EXPECT_EQ(l.next_free(), 100);  // horizon advanced to start, zero width
  // A transfer ready earlier than the zero-byte one's start still queues
  // FIFO but pays no extra serialization from it.
  EXPECT_EQ(l.submit(0, 1000), 100 + 100 + 42);
}

TEST(Link, HorizonIsMonotoneUnderOutOfOrderReadyTimes) {
  // Submissions arrive with out-of-order ready stamps; the FIFO horizon
  // must never move backwards and deliveries must respect issue order.
  Link l("l", 1.0, 0);
  TimeNs prev_free = 0;
  TimeNs prev_done = 0;
  const TimeNs readies[] = {500, 0, 900, 100, 900, 50};
  for (const TimeNs r : readies) {
    const TimeNs done = l.submit(r, 10);
    EXPECT_GE(l.next_free(), prev_free);
    EXPECT_GE(done, prev_done);  // FIFO: later submission, later delivery
    prev_free = l.next_free();
    prev_done = done;
  }
}

TEST(Link, OccupyIntervalRejectsHorizonViolation) {
  Link l("l", 1.0, 0);
  l.occupy_interval(0, 100, 100);
  EXPECT_THROW(l.occupy_interval(50, 120, 70), std::logic_error);  // overlaps
  EXPECT_THROW(l.occupy_interval(200, 150, 0), std::logic_error);  // end<start
}

TEST(Nic, MessageProcessingSerializesBeforeWire) {
  IbSpec spec;
  spec.wire_bytes_per_ns = 20.0;
  spec.wire_latency_ns = 1000;
  spec.per_msg_proc_ns = 250;
  Nic nic("n", spec);
  // proc: [0,250), wire: 2000B/20 = 100ns -> done 350, +1000 latency.
  EXPECT_EQ(nic.post(0, 2000), 1350);
  // Second message: proc [250,500), wire starts max(500, 350)=500.
  EXPECT_EQ(nic.post(0, 2000), 1600);
  EXPECT_EQ(nic.messages(), 2);
}

TEST(Nic, LargeMessagesBoundByWireNotProc) {
  IbSpec spec;
  spec.wire_bytes_per_ns = 20.0;
  spec.wire_latency_ns = 0;
  spec.per_msg_proc_ns = 10;
  Nic nic("n", spec);
  // Two 1 MB messages: wire serialization dominates.
  const TimeNs d1 = nic.post(0, 1 << 20);
  const TimeNs d2 = nic.post(0, 1 << 20);
  EXPECT_NEAR(static_cast<double>(d2 - d1), (1 << 20) / 20.0, 2.0);
}

TEST(Nic, DescriptorProcessorPipelinesWithWire) {
  // Message i+1's descriptor processing overlaps message i's wire time: a
  // stream whose proc and wire costs are equal settles at one stage delay
  // per message, not the two-stage sum.
  IbSpec spec;
  spec.wire_bytes_per_ns = 20.0;
  spec.wire_latency_ns = 0;
  spec.per_msg_proc_ns = 100;
  Nic nic("n", spec);
  const Bytes bytes = 2000;  // wire occupancy = 100 ns = proc time
  const TimeNs d1 = nic.post(0, bytes);  // proc [0,100), wire [100,200)
  EXPECT_EQ(d1, 200);
  TimeNs prev = d1;
  for (int i = 0; i < 4; ++i) {
    const TimeNs d = nic.post(0, bytes);
    EXPECT_EQ(d - prev, 100);  // pipelined: one stage per message
    prev = d;
  }
}

TEST(Nic, ZeroByteMessageStillPaysDescriptorAndLatency) {
  IbSpec spec;
  spec.wire_bytes_per_ns = 20.0;
  spec.wire_latency_ns = 1000;
  spec.per_msg_proc_ns = 250;
  Nic nic("n", spec);
  // Proc [0,250), zero wire occupancy, + wire latency.
  EXPECT_EQ(nic.post(0, 0), 1250);
  EXPECT_EQ(nic.wire().busy_ns(), 0);
}

}  // namespace
}  // namespace fcc::hw
