#include "hw/fabric.h"

namespace fcc::hw {

Fabric::Fabric(int num_ports, const FabricSpec& spec) : spec_(spec) {
  FCC_CHECK(num_ports >= 1);
  egress_.reserve(num_ports);
  ingress_.reserve(num_ports);
  for (int p = 0; p < num_ports; ++p) {
    egress_.push_back(std::make_unique<Link>(
        "gpu" + std::to_string(p) + ".egress", spec.port_bytes_per_ns,
        /*latency_ns=*/0));
    ingress_.push_back(std::make_unique<Link>(
        "gpu" + std::to_string(p) + ".ingress", spec.port_bytes_per_ns,
        /*latency_ns=*/0));
  }
}

}  // namespace fcc::hw
