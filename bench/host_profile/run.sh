#!/usr/bin/env bash
# Host CPU profile of one bench/perf workload, without a PMU or `perf`:
#
#   bench/host_profile/run.sh WORKLOAD [SECONDS]
#
# Builds fcc_perf from bench/perf/CMakeLists.txt, unchanged, as a Release
# build with -g into build/host_profile, and sampler.cc as a shared object
# beside it. Runs WORKLOAD untraced for SECONDS (default 15, seed 1) with
# the sampler preloaded (one SIGPROF sample per millisecond of CPU time),
# symbolizes the sampled PCs with `addr2line -f -C` and prints the top 15
# functions and source lines by share of samples, as two markdown tables.
# Build output and fcc_perf's own report go to stderr.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 WORKLOAD [SECONDS]" >&2
  exit 2
fi
workload="$1"
seconds="${2:-15}"
top=15

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build/host_profile"

if [ ! -f "$build/CMakeCache.txt" ]; then
  generator=""
  if command -v ninja > /dev/null 2>&1; then generator="-G Ninja"; fi
  # shellcheck disable=SC2086  # $generator is two words or none
  cmake -S "$root/bench/perf" -B "$build" $generator \
    -DCMAKE_BUILD_TYPE=Release "-DCMAKE_CXX_FLAGS_RELEASE=-O3 -DNDEBUG -g" >&2
fi
cmake --build "$build" -j "$(nproc 2> /dev/null || echo 2)" >&2
sampler="$build/libfcc_sampler.so"
if [ ! -f "$sampler" ] || [ "$here/sampler.cc" -nt "$sampler" ]; then
  "${CXX:-c++}" -std=c++20 -O2 -Wall -Wextra -shared -fPIC \
    -o "$sampler" "$here/sampler.cc"
fi

samples="$build/samples-$workload.txt"
FCC_PROFILE_OUT="$samples" LD_PRELOAD="$sampler" "$build/fcc_perf" \
  --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 >&2

# One line per distinct PC: count, object, address. The binary's addresses
# go through one addr2line call (two output lines per address: function,
# then file:line); then the counts are summed per function and per source
# line. System libraries ship without symbol tables, where addr2line names
# the nearest exported symbol instead, so their samples count per object.
exe="$(readlink -f "$build/fcc_perf")"
symbolized="$build/symbolized-$workload.txt"
awk -v e="$exe" '$2 != e {
    n = split($2, parts, "/")
    print $1 "\t[" parts[n] "]\t[" parts[n] "]"
  }' "$samples" > "$symbolized"
awk -v e="$exe" '$2 == e {print $1}' "$samples" > "$build/counts.tmp"
awk -v e="$exe" '$2 == e {print $3}' "$samples" \
  | addr2line -f -C -e "$exe" \
  | paste - - \
  | paste "$build/counts.tmp" - \
  | awk -F'\t' '{
      line = $3
      sub(/ \(discriminator [0-9]+\)$/, "", line)
      n = split(line, parts, "/")
      if (n > 2) line = parts[n - 1] "/" parts[n]
      print $1 "\t" $2 "\t" line
    }' >> "$symbolized"
rm -f "$build/counts.tmp"

report() {  # $1: column (2 function, 3 source line), $2: heading
  awk -F'\t' -v col="$1" '{ n[$col] += $1; total += $1 }
    END { for (k in n) printf "%d\t%.1f\t%s\n", n[k], 100 * n[k] / total, k }' \
    "$symbolized" | sort -t$'\t' -k1,1nr | head -n "$top" \
    | awk -F'\t' -v h="$2" 'BEGIN { print "| samples | share % | " h " |";
                                   print "|---:|---:|---|" }
      { gsub(/\|/, "\\|", $3); print "| " $1 " | " $2 " | `" $3 "` |" }'
}

total=$(awk '{ s += $1 } END { print s + 0 }' "$samples")
echo "$workload, ${seconds} s, $total samples"
echo
report 2 function
echo
report 3 "source line"
