// Intra-node GPU fabric (Infinity Fabric class), fully connected.
//
// Each GPU owns an egress port and an ingress port of `port_bytes_per_ns`
// capacity. A peer-to-peer write is the route {src egress, dst ingress},
// reserved jointly (cut-through) through Topology::write_time, so it
// occupies *both* endpoints for its serialization time. Port sharing across
// concurrent peers is the contention mechanism behind the paper's Fig. 9
// droop at M = 64k.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "hw/gpu_spec.h"
#include "hw/link.h"

namespace fcc::hw {

class Fabric {
 public:
  Fabric(int num_ports, const FabricSpec& spec);

  const FabricSpec& spec() const { return spec_; }

  const Link& egress(int port) const { return *egress_.at(port); }
  const Link& ingress(int port) const { return *ingress_.at(port); }
  Link& egress(int port) { return *egress_.at(port); }
  Link& ingress(int port) { return *ingress_.at(port); }

  /// Total payload bytes moved through the fabric so far: every write
  /// leaves through exactly one egress port.
  Bytes total_bytes() const {
    Bytes sum = 0;
    for (const auto& l : egress_) sum += l->total_bytes();
    return sum;
  }

 private:
  FabricSpec spec_;
  std::vector<std::unique_ptr<Link>> egress_;
  std::vector<std::unique_ptr<Link>> ingress_;
};

}  // namespace fcc::hw
