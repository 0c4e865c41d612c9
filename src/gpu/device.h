// Simulated GPU device: compute timing with occupancy-dependent HBM sharing.
//
// A workgroup's compute step is expressed as a WorkCost (bytes touched in
// HBM + flops executed); the device converts it to virtual time using the
// bandwidth-contention curve evaluated at the *current* number of
// compute-active WGs. Memory-bound and compute-bound kernels both fall out
// of the same max(mem, alu) rule.
//
// A compute step is a call-chain step: a persistent-kernel WG, a chain of
// engine calls on its slot's record (gpu::KernelRun), calls start_step()
// and, in the step's end call, end_step(). A device wait is wait_then(),
// and a coroutine awaits it as busy_wait().
//
// A cost that is fixed for a whole launch carries a duration table
// (Device::tabulate): the step duration at each active-WG count up to the
// device's WG slots, computed once by compute_duration itself, so a table
// lookup is bit-identical to the formula it replaces.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "common/types.h"
#include "hw/gpu_spec.h"
#include "hw/hbm_model.h"
#include "sim/engine.h"
#include "sim/task.h"

namespace fcc::gpu {

/// Cost of one logical workgroup's compute step.
struct WorkCost {
  Bytes hbm_bytes = 0;       // HBM traffic (reads + writes)
  double flops = 0;          // fp32 operations
  double alu_efficiency = 1.0;  // fraction of peak ALU the kernel sustains
  hw::HbmCurve curve;        // kernel-specific contention curve
  /// by_active[a] == Device::compute_duration(*this, a), filled by
  /// Device::tabulate; empty means compute the duration at each step.
  /// Stale if a field above changes after tabulating.
  std::vector<TimeNs> by_active;
};

class Device {
 public:
  Device(sim::Engine& engine, PeId id, const hw::GpuSpec& spec)
      : engine_(engine),
        id_(id),
        spec_(spec),
        hbm_(spec.hbm_bytes_per_ns, spec.max_wg_slots()) {}

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  sim::Engine& engine() { return engine_; }
  PeId id() const { return id_; }
  const hw::GpuSpec& spec() const { return spec_; }
  const hw::HbmModel& hbm() const { return hbm_; }

  /// Number of WGs currently inside a compute step.
  int active_wgs() const { return active_wgs_; }

  /// Duration `cost` would take if started now (does not reserve anything).
  TimeNs compute_duration(const WorkCost& cost, int active) const {
    TimeNs mem_ns = 0;
    if (cost.hbm_bytes > 0) {
      const double bw = hbm_.per_wg_bandwidth(active < 1 ? 1 : active,
                                              cost.curve);
      mem_ns = static_cast<TimeNs>(static_cast<double>(cost.hbm_bytes) / bw +
                                   0.5);
    }
    TimeNs alu_ns = 0;
    if (cost.flops > 0) {
      // Aggregate ALU throughput ramps linearly until the SIMDs saturate
      // (~4 waves per CU), then stays flat: more occupancy past that point
      // helps memory latency hiding, not raw flops.
      const int a = active < 1 ? 1 : active;
      const double util =
          std::min(1.0, static_cast<double>(a) /
                            static_cast<double>(spec_.alu_saturation_wgs));
      const double per_wg_flops = spec_.fp32_flops_per_ns *
                                  cost.alu_efficiency * util /
                                  static_cast<double>(a);
      alu_ns = static_cast<TimeNs>(cost.flops / per_wg_flops + 0.5);
    }
    return mem_ns > alu_ns ? mem_ns : alu_ns;
  }

  /// Fills `cost.by_active` for active counts 0..max_wg_slots, so that
  /// concurrent launches on one device (serving lanes) stay in the table;
  /// a step that sees more active WGs falls back to compute_duration.
  /// Every device of a machine shares one spec, so a table built on one
  /// device serves them all.
  void tabulate(WorkCost& cost) const {
    cost.by_active.resize(static_cast<std::size_t>(spec_.max_wg_slots()) + 1);
    for (std::size_t a = 0; a < cost.by_active.size(); ++a) {
      cost.by_active[a] = compute_duration(cost, static_cast<int>(a));
    }
  }

  /// Duration of a step that starts with `active` WGs computing: the
  /// cost's table entry when it has one, else compute_duration.
  TimeNs step_duration(const WorkCost& cost, int active) const {
    return static_cast<std::size_t>(active) < cost.by_active.size()
               ? cost.by_active[static_cast<std::size_t>(active)]
               : compute_duration(cost, active);
  }

  /// Starts a compute step for the WG whose chain continues at `next` on
  /// `c`: registers the WG as active, charges the step at that active
  /// count and schedules the call at the step's end, where `next` must
  /// call end_step() first. The duration is fixed at entry from the active
  /// count at that moment (documented approximation; workloads here run in
  /// near-homogeneous waves).
  void start_step(const WorkCost& cost, sim::Call& c, sim::Call::Fn next) {
    const TimeNs dur = step_duration(cost, ++active_wgs_);
    busy_ns_ += dur;
    total_bytes_ += cost.hbm_bytes;
    total_flops_ += cost.flops;
    engine_.call_after(dur, c, next);
  }

  /// Deregisters the WG whose step start_step() scheduled to end now.
  void end_step() { --active_wgs_; }

  /// Plain timed wait charged to this device (bookkeeping instructions,
  /// comm-API issue cost, ...): charges `dur` and runs `next` on `c` after
  /// it.
  void wait_then(TimeNs dur, sim::Call& c, sim::Call::Fn next) {
    busy_ns_ += dur;
    engine_.call_after(dur, c, next);
  }

  /// wait_then() for a coroutine.
  auto busy_wait(TimeNs dur) {
    return sim::suspend([this, dur](sim::Call& c, sim::Call::Fn fn) {
      wait_then(dur, c, fn);
      return true;
    });
  }

  TimeNs busy_ns() const { return busy_ns_; }
  Bytes total_hbm_bytes() const { return total_bytes_; }
  double total_flops() const { return total_flops_; }

 private:
  sim::Engine& engine_;
  PeId id_;
  hw::GpuSpec spec_;
  hw::HbmModel hbm_;
  int active_wgs_ = 0;
  TimeNs busy_ns_ = 0;
  Bytes total_bytes_ = 0;
  double total_flops_ = 0;
};

}  // namespace fcc::gpu
