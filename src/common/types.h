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

constexpr double ns_to_us(TimeNs ns) { return static_cast<double>(ns) / 1e3; }

}  // namespace fcc
