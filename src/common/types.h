// Core scalar types shared across the FCC library.
//
// All simulated time is kept in integer nanoseconds (`TimeNs`) so event
// ordering is exact; derived quantities (bandwidth, rates) are computed in
// double and rounded once at scheduling boundaries.
#pragma once

#include <cstdint>
#include <limits>

namespace fcc {

/// Virtual simulation time in nanoseconds.
using TimeNs = std::int64_t;

/// Sentinel for "never" / unset timestamps.
inline constexpr TimeNs kTimeNever = std::numeric_limits<TimeNs>::max();

/// Byte counts for buffers and transfers.
using Bytes = std::int64_t;

/// Identifier of a processing element (one GPU) in a job, dense from 0.
using PeId = int;

/// Identifier of a node (host); each node holds one or more PEs.
using NodeId = int;

inline constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

/// Converts a GB/s figure (decimal gigabytes, as vendors quote link specs)
/// to bytes per nanosecond, the unit the link models use internally.
constexpr double gb_per_s_to_bytes_per_ns(double gb_per_s) {
  return gb_per_s * 1e9 / 1e9;  // 1 GB/s == 1 byte/ns
}

/// Converts Gb/s (gigabits, as network specs quote) to bytes per nanosecond.
constexpr double gbit_per_s_to_bytes_per_ns(double gbit_per_s) {
  return gbit_per_s / 8.0;
}

constexpr TimeNs us_to_ns(double us) { return static_cast<TimeNs>(us * 1e3); }
constexpr TimeNs ms_to_ns(double ms) { return static_cast<TimeNs>(ms * 1e6); }
constexpr double ns_to_us(TimeNs ns) { return static_cast<double>(ns) / 1e3; }

}  // namespace fcc
