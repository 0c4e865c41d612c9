// Parallel sweep runner for the figure benches.
//
// A sweep point is one fully independent simulation (its own Machine, World
// and Engine — the engine is single-threaded by design, so parallelism runs
// *whole engines* on separate threads, see src/sim/engine.h). `run_sweep`
// fans the points across a par::ThreadPool and returns results **in index
// order**, so tables and CSVs are byte-identical whatever the thread count
// and however the points interleave on the host.
//
// FCC_SWEEP_THREADS: 0 / unset => hardware concurrency; N => N threads, the
// calling thread among them (1 runs the points one by one, in index order:
// the reference mode for determinism checks). Anything but an integer >= 0
// stops the bench (exit 2).
#pragma once

#include <algorithm>
#include <functional>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "parallel/thread_pool.h"

namespace fccbench {

inline unsigned sweep_threads(int points) {
  auto t = static_cast<unsigned>(env_int("FCC_SWEEP_THREADS", 0, 0));
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
  fcc::par::ThreadPool pool(sweep_threads(n) - 1);
  pool.run_batch(0, n, [&](std::int64_t i) {
    out[static_cast<std::size_t>(i)] = point(static_cast<int>(i));
  });
  return out;
}

}  // namespace fccbench
