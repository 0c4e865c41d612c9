// FIFO-serialized bandwidth/latency link.
//
// Analytic model: transfers occupy the link back-to-back in submission
// order; the caller receives the delivery completion time and sleeps until
// then via the event engine. Keeping the link analytic (no coroutine per
// transfer) makes million-transfer simulations cheap while preserving
// deterministic contention behaviour.
#pragma once

#include <span>
#include <string>

#include "common/check.h"
#include "common/types.h"

namespace fcc::hw {

class Link {
 public:
  Link(std::string name, double bytes_per_ns, TimeNs latency_ns)
      : name_(std::move(name)),
        bytes_per_ns_(bytes_per_ns),
        bw_(bytes_per_ns),
        latency_ns_(latency_ns) {
    FCC_CHECK(bytes_per_ns > 0);
    FCC_CHECK(latency_ns >= 0);
  }

  const std::string& name() const { return name_; }
  /// Current (possibly derated) bandwidth; equals the constructed nominal
  /// bandwidth bit-exactly while the link is healthy.
  double bandwidth() const { return bw_; }
  double nominal_bandwidth() const { return bytes_per_ns_; }
  TimeNs latency() const { return latency_ns_; }

  /// Earliest time a new transfer could start occupying the link, given it
  /// becomes ready at `ready`.
  TimeNs earliest_start(TimeNs ready) const {
    return ready > next_free_ ? ready : next_free_;
  }

  /// Duration `bytes` occupy the link (serialization delay, no latency), at
  /// the current (possibly derated) bandwidth.
  TimeNs occupancy(Bytes bytes) const {
    FCC_CHECK(bytes >= 0);
    return static_cast<TimeNs>(static_cast<double>(bytes) / bw_ + 0.5);
  }

  /// Reserves the interval [start, end) on the link for a transfer of
  /// `bytes`. `start` must be at or after the current horizon (FIFO order).
  /// Routing must never reserve a dead link (resolution reroutes or throws
  /// PartitionedFabricError).
  void occupy_interval(TimeNs start, TimeNs end, Bytes bytes) {
    FCC_DCHECK(!dead_);
    FCC_CHECK(start >= next_free_);
    FCC_CHECK(end >= start);
    busy_ns_ += end - start;
    next_free_ = end;
    total_bytes_ += bytes;
    ++transfers_;
  }

  /// FIFO transfer submitted at `ready`; returns delivery-complete time at
  /// the far side (occupancy end + propagation latency + fault jitter).
  TimeNs submit(TimeNs ready, Bytes bytes) {
    const TimeNs start = earliest_start(ready);
    const TimeNs end = start + occupancy(bytes);
    occupy_interval(start, end, bytes);
    return end + latency_ns_ + jitter_ns_;
  }

  TimeNs next_free() const { return next_free_; }
  Bytes total_bytes() const { return total_bytes_; }
  TimeNs busy_ns() const { return busy_ns_; }
  std::int64_t transfers() const { return transfers_; }

  // ---- fault-injection health (hw/fault.h) --------------------------------
  // Healthy defaults are arithmetic identities (bw_ == nominal, + 0 jitter),
  // so a link that never saw a fault times transfers bit-identically to the
  // pre-fault-model Link.
  bool dead() const { return dead_; }
  double derate() const { return derate_; }
  TimeNs jitter_ns() const { return jitter_ns_; }
  bool healthy() const {
    return !dead_ && derate_ == 1.0 && jitter_ns_ == 0;
  }
  void set_dead(bool dead) { dead_ = dead; }
  void set_derate(double f) {
    FCC_CHECK_MSG(f > 0.0 && f <= 1.0,
                  name_ << ": derate must be in (0, 1], got " << f);
    derate_ = f;
    bw_ = bytes_per_ns_ * f;
  }
  void set_jitter(TimeNs j) {
    FCC_CHECK(j >= 0);
    jitter_ns_ = j;
  }
  void restore() {
    dead_ = false;
    derate_ = 1.0;
    jitter_ns_ = 0;
    bw_ = bytes_per_ns_;
  }

 private:
  std::string name_;
  double bytes_per_ns_;  // nominal
  double bw_;            // current = nominal * derate_
  TimeNs latency_ns_;
  TimeNs next_free_ = 0;
  TimeNs busy_ns_ = 0;
  Bytes total_bytes_ = 0;
  std::int64_t transfers_ = 0;
  bool dead_ = false;
  double derate_ = 1.0;
  TimeNs jitter_ns_ = 0;
};

/// Cut-through reservation across a multi-hop route: all hops are occupied
/// for one joint serialization window starting when every hop is free (the
/// head flit cannot advance until the whole wormhole path is claimed), and
/// the data is delivered one propagation `latency_ns` after the slowest
/// hop drains. With the two-hop {egress, ingress} route this is exactly
/// the fully-connected Fabric's historical joint endpoint accounting.
inline TimeNs reserve_cut_through(std::span<Link* const> hops, Bytes bytes,
                                  TimeNs ready, TimeNs latency_ns) {
  FCC_CHECK(!hops.empty());
  TimeNs start = ready;
  for (const Link* l : hops) {
    const TimeNs s = l->earliest_start(ready);
    if (s > start) start = s;
  }
  TimeNs max_occ = 0;
  for (Link* l : hops) {
    const TimeNs occ = l->occupancy(bytes);
    l->occupy_interval(start, start + occ, bytes);
    if (occ > max_occ) max_occ = occ;
  }
  return start + max_occ + latency_ns;
}

}  // namespace fcc::hw
