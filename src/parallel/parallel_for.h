// parallel_for over an index range, chunked across a ThreadPool.
//
// Used by bench/sweep_runner.h to run independent simulation configs
// concurrently; the body must be thread-safe for distinct indices (pure data
// parallelism, no shared mutable state).
#pragma once

#include <cstdint>
#include <functional>

#include "common/check.h"
#include "parallel/thread_pool.h"

namespace fcc::par {

/// Invokes `body(i)` for i in [begin, end) using `pool`. Blocks until done.
/// Rides the pool's batch path: the whole range is one published
/// descriptor and workers claim `grain`-sized chunks with an atomic
/// fetch_add — no per-chunk std::function, no per-chunk lock round-trip.
inline void parallel_for(ThreadPool& pool, std::int64_t begin,
                         std::int64_t end,
                         const std::function<void(std::int64_t)>& body,
                         std::int64_t grain = 1) {
  FCC_CHECK(begin <= end);
  FCC_CHECK(grain >= 1);
  pool.run_batch(begin, end, body, grain);
}

}  // namespace fcc::par
