#!/usr/bin/env bash
# Builds the perf benchmark into build/perf (Release) and runs one workload:
#
#   bench/perf/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#                     [--trace-out PATH] [--smoke]
#
# Build output goes to stderr, so the last stdout line is the JSON result.
# The binary refuses to measure a build that is not Release.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build/perf"

if [ ! -f "$build/CMakeCache.txt" ]; then
  generator=""
  if command -v ninja > /dev/null 2>&1; then generator="-G Ninja"; fi
  # shellcheck disable=SC2086  # $generator is two words or none
  cmake -S "$here" -B "$build" $generator -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$(nproc 2> /dev/null || echo 2)" >&2

commit=unknown
if [ -e "$root/.git" ]; then
  commit="$(git -C "$root" describe --always --dirty --abbrev=12 2> /dev/null || echo unknown)"
fi
exec "$build/fcc_perf" --commit "$commit" "$@"
