// Planner scoring: fast analytic fused-vs-baseline estimates, and baseline
// AllReduce algorithms priced by running their schedules.
//
// Per-op analytic models (a table keyed by registry name, next to nothing
// else: src/plan/op_models.cc) predict the fused and baseline durations of
// one op on one machine from the ops/cost_model.h workgroup formulas and
// the hardware specs — pure closed-form host math, no engine, microseconds
// to evaluate. The CostScorer then multiplies each analytic estimate by a
// calibration correction interpolated from measured figure-bench anchors
// (plan/calibration.h), so at every anchor point the score reproduces the
// simulator's measured duration exactly — which is what makes the planner
// honest about crossovers like moe_dispatch at T=512, where the analytic
// shape alone is within a few percent of the flip.
//
// A baseline node's AllReduce algorithm has no analytic model:
// pick_allreduce_algo runs every candidate's ccl schedule on an idle
// scratch machine (ccl::Communicator::price_all_reduce) and keeps the
// fastest, with no margin.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "ccl/communicator.h"
#include "common/types.h"
#include "framework/op_registry.h"
#include "gpu/machine.h"
#include "plan/calibration.h"

namespace fcc::plan {

/// The hardware environment a score is computed against, plus shared
/// closed-form helpers so op models agree on what "device time" and "wire
/// time" mean.
struct CostEnv {
  gpu::Machine::Config machine;

  int num_pes() const { return machine.num_nodes * machine.gpus_per_node; }
  bool multi_node() const { return machine.num_nodes > 1; }

  /// Whole-device kernel time: max of HBM streaming and ALU time, the
  /// aggregate-level shape of gpu::Device::compute_duration (occupancy
  /// curves are left to calibration).
  double device_ns(double hbm_bytes, double flops,
                   double alu_efficiency = 1.0) const;

  /// Time for one GPU to move `bytes` of peer traffic across the scale-up
  /// fabric (topology-aware port bandwidth + per-transfer latency). When
  /// the machine spans nodes, `inter_fraction` of the bytes instead ride
  /// the NIC at its (rail-scaled) wire bandwidth.
  double wire_ns(double bytes, double inter_fraction = 0.0) const;

  /// One-hop scale-up latency under the active topology.
  double scaleup_latency_ns() const;

  /// Canonical topology + geometry key ("fully_connected/1x4",
  /// "switched/2x4", ...) — the calibration table's topology axis.
  std::string topo_kind() const;
};

struct CostEstimate {
  double fused_ns = 0.0;
  double baseline_ns = 0.0;
  bool valid = false;       // an op model existed and produced an estimate
  bool calibrated = false;  // corrected against measured anchors

  fw::Backend winner() const {
    return fused_ns <= baseline_ns ? fw::Backend::kFused
                                   : fw::Backend::kBaseline;
  }
};

/// Analytic model for one registered op. `estimate` and `work` are
/// mandatory; the allreduce fields exist only for ops whose baseline
/// carries a selectable ccl algorithm: select-ccl-algo skips an op unless
/// its elements, current algorithm and setter are all set.
struct OpCostModel {
  /// Closed-form fused/baseline prediction. Must be deterministic and
  /// engine-free; may throw fw::SpecTypeError on a mis-typed spec slot.
  std::function<CostEstimate(const fw::OpSpec&, const CostEnv&)> estimate;
  /// Scalar problem size (monotone in the op's dominant dimensions) used
  /// to interpolate calibration corrections in log-work space.
  std::function<double(const fw::OpSpec&, const CostEnv&)> work;

  /// Baseline collective steering (optional, e.g. gemv_allreduce).
  std::vector<ccl::AllReduceAlgo> allreduce_candidates{};
  /// Elements the baseline's AllReduce reduces per rank.
  std::function<std::int64_t(const fw::OpSpec&)> allreduce_elems = nullptr;
  std::function<ccl::AllReduceAlgo(const fw::OpSpec&)> allreduce_algo =
      nullptr;  // current choice in the spec
  std::function<void(fw::OpSpec&, ccl::AllReduceAlgo)> set_allreduce_algo =
      nullptr;
};

const char* allreduce_algo_name(ccl::AllReduceAlgo algo);

/// The analytic model for registry op `op` (plan/op_models.cc), or nullptr.
const OpCostModel* find_op_model(const std::string& op);

/// select-ccl-algo's verdict on one baseline node: the algorithm it plans
/// and the incumbent, with their idle-machine times in ns.
struct AlgoPick {
  ccl::AllReduceAlgo incumbent;
  ccl::AllReduceAlgo chosen;
  double incumbent_ns;  // infinity when the incumbent cannot run here
  double chosen_ns;
};

/// Prices `spec`'s current AllReduce algorithm and every eligible candidate
/// of its model by running their schedules on an idle machine built from
/// `env.machine`, then picks the strict minimum: a tie keeps the incumbent.
/// nullopt when the op has no selectable collective. May throw
/// fw::SpecTypeError on a mis-typed spec slot.
std::optional<AlgoPick> pick_allreduce_algo(const fw::OpSpec& spec,
                                            const CostEnv& env);

class CostScorer {
 public:
  /// Pass empty_calibration() for the uncorrected analytic score.
  CostScorer(CostEnv env, const CalibrationTable& calibration);

  /// Calibration-corrected estimate for `spec` on this scorer's machine;
  /// `valid` is false when no model exists for the op.
  CostEstimate score(const fw::OpSpec& spec) const;

  const CostEnv& env() const { return env_; }

 private:
  CostEnv env_;
  const CalibrationTable& calibration_;
};

}  // namespace fcc::plan
