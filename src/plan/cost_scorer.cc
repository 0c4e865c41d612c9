#include "plan/cost_scorer.h"

#include <algorithm>
#include <limits>

#include "hw/topology.h"

namespace fcc::plan {

double CostEnv::device_ns(double hbm_bytes, double flops,
                          double alu_efficiency) const {
  const double mem =
      hbm_bytes > 0 ? hbm_bytes / machine.gpu.hbm_bytes_per_ns : 0.0;
  const double alu =
      flops > 0 ? flops / (machine.gpu.fp32_flops_per_ns * alu_efficiency)
                : 0.0;
  return std::max(mem, alu);
}

double CostEnv::wire_ns(double bytes, double inter_fraction) const {
  double port_bw = machine.fabric.port_bytes_per_ns;
  if (machine.topology.kind == hw::TopologySpec::Kind::kSwitchedNode) {
    port_bw = std::min(port_bw, machine.topology.switched.port_bytes_per_ns);
    // A shared trunk caps the node's aggregate bisection; charge this
    // GPU its 1/P share of the cap when that is tighter than its port.
    const double trunk = machine.topology.switched.trunk_bytes_per_ns;
    if (trunk > 0) {
      port_bw = std::min(port_bw, trunk / std::max(1, num_pes()));
    }
  }
  const double intra = bytes * (1.0 - inter_fraction) / port_bw;
  double inter = 0.0;
  if (inter_fraction > 0) {
    double nic_bw = machine.ib.wire_bytes_per_ns;
    if (machine.topology.kind == hw::TopologySpec::Kind::kMultiRail) {
      nic_bw *= std::max(1, machine.topology.nic_rails);
    } else if (machine.topology.kind == hw::TopologySpec::Kind::kTorus2D) {
      // A torus node has four links but traffic serializes over hops;
      // model the effective per-node injection bandwidth as one link.
      nic_bw = machine.topology.torus.link_bytes_per_ns;
    }
    inter = bytes * inter_fraction / nic_bw +
            static_cast<double>(machine.ib.wire_latency_ns);
  }
  return intra + inter + static_cast<double>(scaleup_latency_ns());
}

double CostEnv::scaleup_latency_ns() const {
  if (machine.topology.kind == hw::TopologySpec::Kind::kSwitchedNode) {
    // GPU -> switch -> GPU: two hop traversals.
    return 2.0 * static_cast<double>(machine.topology.switched.hop_latency_ns);
  }
  return static_cast<double>(machine.fabric.latency_ns);
}

std::string CostEnv::topo_kind() const {
  std::string kind = "unknown";
  switch (machine.topology.kind) {
    case hw::TopologySpec::Kind::kFullyConnected:
      kind = "fully_connected";
      break;
    case hw::TopologySpec::Kind::kSwitchedNode:
      kind = "switched";
      break;
    case hw::TopologySpec::Kind::kMultiRail:
      kind = "multi_rail";
      break;
    case hw::TopologySpec::Kind::kTorus2D:
      kind = "torus";
      break;
  }
  // Node geometry is part of the key: a 1x4 and a 2x4 machine of the same
  // kind have different measured corrections and must not share anchors.
  return kind + "/" + std::to_string(machine.num_nodes) + "x" +
         std::to_string(machine.gpus_per_node);
}

const char* allreduce_algo_name(ccl::AllReduceAlgo algo) {
  switch (algo) {
    case ccl::AllReduceAlgo::kAuto:
      return "auto";
    case ccl::AllReduceAlgo::kTwoPhaseDirect:
      return "two_phase_direct";
    case ccl::AllReduceAlgo::kRing:
      return "ring";
    case ccl::AllReduceAlgo::kHierarchical:
      return "hierarchical";
  }
  return "unknown";
}

std::optional<AlgoPick> pick_allreduce_algo(const fw::OpSpec& spec,
                                            const CostEnv& env) {
  const OpCostModel* model = find_op_model(spec.name);
  if (model == nullptr || model->allreduce_elems == nullptr ||
      model->allreduce_algo == nullptr ||
      model->set_allreduce_algo == nullptr) {
    return std::nullopt;
  }
  // The incumbent first: a strict minimum keeps it on every tie.
  std::vector<ccl::AllReduceAlgo> algos{model->allreduce_algo(spec)};
  for (const ccl::AllReduceAlgo algo : model->allreduce_candidates) {
    if (algo != algos.front()) algos.push_back(algo);
  }
  const auto prices = ccl::Communicator::price_all_reduce(
      env.machine, model->allreduce_elems(spec), algos);
  const auto ns = [](std::optional<TimeNs> price) {
    return price ? static_cast<double>(*price)
                 : std::numeric_limits<double>::infinity();
  };
  AlgoPick pick{algos.front(), algos.front(), ns(prices.front()),
                ns(prices.front())};
  for (std::size_t i = 1; i < algos.size(); ++i) {
    if (ns(prices[i]) < pick.chosen_ns) {
      pick.chosen = algos[i];
      pick.chosen_ns = ns(prices[i]);
    }
  }
  return pick;
}

CostScorer::CostScorer(CostEnv env, const CalibrationTable& calibration)
    : env_(std::move(env)), calibration_(calibration) {}

CostEstimate CostScorer::score(const fw::OpSpec& spec) const {
  const OpCostModel* model = find_op_model(spec.name);
  if (model == nullptr) return {};
  CostEstimate est = model->estimate(spec, env_);
  if (!est.valid) return est;
  const auto corr = calibration_.correction(spec.name, env_.topo_kind(),
                                            model->work(spec, env_));
  if (corr.any) {
    est.fused_ns *= corr.fused;
    est.baseline_ns *= corr.baseline;
    est.calibrated = true;
  }
  return est;
}

}  // namespace fcc::plan
