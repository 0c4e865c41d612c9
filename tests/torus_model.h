// Analytic 2D-torus cross-check (ASTRA-Sim network-layer analog, Table II).
//
// The live scale-out path runs on `hw::TorusTopology` (hw/topology.h):
// an event-driven torus whose dimension-ordered collective schedules are
// reserved on shared FIFO links, so scale-out traffic contends with
// anything else on the machine. `TorusModel` keeps the closed-form
// dimension-decomposed schedule those flows implement; on an idle topology
// the two agree exactly (pinned by test_scaleout.cc), which makes this the
// regression cross-check for the event-driven engine rather than part of
// the simulator.
//
// Links are 200 Gb/s (25 B/ns) with 700 ns hop latency by default; the
// shared spec (and its validation) lives in hw::TorusSpec.
#pragma once

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/types.h"
#include "hw/topology.h"
#include "scaleout/dlrm_training.h"

namespace fcc::scaleout {

class TorusModel {
 public:
  explicit TorusModel(const TorusSpec& spec) : spec_(spec) {
    spec.validate();
  }

  const TorusSpec& spec() const { return spec_; }

  /// Uniform personalized All-to-All: every node sends `per_pair_bytes` to
  /// every other node. Dimension-ordered two-stage schedule: stage 1 moves
  /// aggregated column traffic around each row ring, stage 2 distributes
  /// within column rings. Ring A2A of n nodes with per-pair chunk c loads
  /// the busiest link with ~c*n^2/8 bytes (both directions used).
  TimeNs all_to_all_time(Bytes per_pair_bytes) const {
    const int n = spec_.num_nodes();
    if (n <= 1 || per_pair_bytes <= 0) return 0;
    const TimeNs s1 = ring_a2a_stage(spec_.dim_x,
                                     per_pair_bytes * spec_.dim_y);
    const TimeNs s2 = ring_a2a_stage(spec_.dim_y,
                                     per_pair_bytes * spec_.dim_x);
    return s1 + s2;
  }

  /// Hierarchical ring AllReduce (Themis-style 2D decomposition):
  /// reduce-scatter along x with the full payload, reduce-scatter along y
  /// with 1/dim_x of it, then the mirrored all-gathers. Per ring of n
  /// nodes moving B bytes: (n-1)/n * B of serialized link traffic per
  /// phase, plus per-step hop latency.
  TimeNs all_reduce_time(Bytes bytes) const {
    auto ring_phase = [&](int n, double phase_bytes) -> TimeNs {
      if (n <= 1) return 0;
      const double wire = phase_bytes * (n - 1) / n / spec_.link_bytes_per_ns;
      return static_cast<TimeNs>(wire) + (n - 1) * spec_.link_latency_ns;
    };
    const double b = static_cast<double>(bytes);
    const TimeNs rs_x = ring_phase(spec_.dim_x, b);
    const TimeNs rs_y = ring_phase(spec_.dim_y, b / spec_.dim_x);
    return 2 * (rs_x + rs_y);  // all-gather mirrors reduce-scatter
  }

 private:
  TimeNs ring_a2a_stage(int n, Bytes per_pair) const {
    if (n <= 1) return 0;
    // Busiest-link load for uniform A2A on a bidirectional ring.
    const double load = static_cast<double>(per_pair) * n * n / 8.0;
    return static_cast<TimeNs>(load / spec_.link_bytes_per_ns) +
           static_cast<TimeNs>(n / 2) * spec_.link_latency_ns;
  }

  TorusSpec spec_;
};

}  // namespace fcc::scaleout
