// Parallel sweep runner for the figure benches.
//
// A sweep point is one fully independent simulation (its own Machine, World
// and Engine — the engine is single-threaded by design, so parallelism runs
// *whole engines* on separate threads, see src/sim/engine.h). `run_sweep`
// fans the points across a par::ThreadPool and returns results **in index
// order**, so tables and CSVs are byte-identical to a serial run no matter
// how the points interleave on the host.
//
// FCC_SWEEP_THREADS: 0 / unset => hardware concurrency; 1 => serial
// (reference mode for determinism checks); N => N threads.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <thread>
#include <vector>

#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"

namespace fccbench {

inline unsigned sweep_threads(int points) {
  unsigned t = 0;
  if (const char* env = std::getenv("FCC_SWEEP_THREADS");
      env != nullptr && *env != '\0') {
    t = static_cast<unsigned>(std::strtoul(env, nullptr, 10));
  }
  if (t == 0) t = std::max(1u, std::thread::hardware_concurrency());
  const unsigned cap = points < 1 ? 1u : static_cast<unsigned>(points);
  return t < cap ? t : cap;
}

/// Runs `point(i)` for i in [0, n), possibly concurrently, and returns the
/// results indexed by i. `point` must be self-contained (build its own
/// machine/world; no shared mutable state), which every figure bench's
/// sweep body already is.
template <typename Result>
std::vector<Result> run_sweep(int n, const std::function<Result(int)>& point) {
  std::vector<Result> out(static_cast<std::size_t>(n));
  const unsigned threads = sweep_threads(n);
  if (threads <= 1 || n <= 1) {
    for (int i = 0; i < n; ++i) out[static_cast<std::size_t>(i)] = point(i);
  } else {
    fcc::par::ThreadPool pool(threads);
    fcc::par::parallel_for(pool, 0, n, [&](std::int64_t i) {
      out[static_cast<std::size_t>(i)] = point(static_cast<int>(i));
    });
  }
  return out;
}

}  // namespace fccbench
