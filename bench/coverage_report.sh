#!/usr/bin/env bash
# Lists the src/ functions that only tests reach, and those nothing reaches.
#
#   bash bench/coverage_report.sh [BUILD_DIR]
#
# Builds the repository and bench/perf with --coverage -O1 -fno-inline into
# BUILD_DIR (default: a fresh temporary directory, removed afterwards), then
# runs, in order:
#   1. what the system runs: every bench at the knobs CI uses
#      (bench/check_golden.py), the examples as CI runs them, and
#      `fcc_perf --smoke` on every workload, untraced and traced
#      (bench/perf/smoke.py);
#   2. ctest.
# gcov's per-function counts after step 1 and after step 2 give two lists of
# src/ functions: "reached only by tests" and "reached by nothing", each
# with its lines, plus a summary of executable src/ lines reached.
#
# -fno-inline keeps every called function out of line, so gcov counts it:
# at plain -O1 a header function inlined into all its callers drops out of
# the report. Every run is pinned to one CPU: gcov's counters are shared
# memory, and simulator threads bumping them from several cores run about a
# hundred times slower. Blind spot: header code that no translation unit
# instantiates (an uncalled template or inline function) is never compiled,
# so it never appears in gcov at all. Grep for such code by name.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [ $# -ge 1 ]; then
  work="$1"
  mkdir -p "$work"
else
  work="$(mktemp -d)"
  trap 'rm -rf "$work"' EXIT
fi
jobs="$(nproc 2> /dev/null || echo 2)"
generator=""
if command -v ninja > /dev/null 2>&1; then generator="-G Ninja"; fi
flags=(-DCMAKE_BUILD_TYPE=Release
       "-DCMAKE_CXX_FLAGS_RELEASE=-O1 -fno-inline -DNDEBUG"
       "-DCMAKE_CXX_FLAGS=--coverage"
       "-DCMAKE_EXE_LINKER_FLAGS=--coverage")

# shellcheck disable=SC2086  # $generator is two words or none
cmake -S "$root" -B "$work/main" $generator "${flags[@]}" > /dev/null
cmake --build "$work/main" -j "$jobs" > /dev/null
# shellcheck disable=SC2086
cmake -S "$root/bench/perf" -B "$work/perf" $generator "${flags[@]}" > /dev/null
cmake --build "$work/perf" -j "$jobs" > /dev/null
find "$work" -name '*.gcda' -delete

pin=()
if command -v taskset > /dev/null 2>&1; then pin=(taskset -c 0); fi

echo "step 1: benches, examples, fcc_perf --smoke" >&2
"${pin[@]}" python3 "$root/bench/check_golden.py" "$work"/main/bench_* >&2 ||
  echo "warning: a golden check failed in the coverage build" >&2
(
  cd "$work"
  main="$work/main"
  "${pin[@]}" "$main/quickstart"
  "${pin[@]}" "$main/transformer_decode" --framework
  "${pin[@]}" "$main/dlrm_inference"
  "${pin[@]}" "$main/moe_layer"
  "${pin[@]}" "$main/scaleout_training"
) > /dev/null
"${pin[@]}" python3 "$root/bench/perf/smoke.py" "$work/perf/fcc_perf" \
  "$root/BENCHMARK.json" >&2

gcov_json() {  # one JSON object per line, for every .gcda under $1
  find "$1" -name '*.gcda' | while read -r f; do
    (cd "$(dirname "$f")" && gcov --json-format --stdout "$f" 2> /dev/null)
  done
}
gcov_json "$work/perf" > "$work/perf.json"
gcov_json "$work/main" > "$work/system.json"

echo "step 2: ctest" >&2
"${pin[@]}" ctest --test-dir "$work/main" -E '^golden_' > /dev/null ||
  echo "warning: ctest failed in the coverage build" >&2
gcov_json "$work/main" > "$work/tests.json"

python3 - "$root" "$work" << 'EOF'
import json
import os
import sys

root, work = sys.argv[1], sys.argv[2]
src = os.path.join(root, "src") + os.sep


def load(*names):
    """(file, start line) -> [name, end line, count]; (file, line) -> count,
    summed over every translation unit and build."""
    funcs, lines = {}, {}
    for name in names:
        with open(os.path.join(work, name), encoding="utf-8") as f:
            for text in f:
                data = json.loads(text)
                cwd = data["current_working_directory"]
                for rec in data["files"]:
                    path = os.path.realpath(os.path.join(cwd, rec["file"]))
                    if not path.startswith(src):
                        continue
                    path = path[len(root) + 1:]
                    for fn in rec["functions"]:
                        key = (path, fn["start_line"])
                        entry = funcs.setdefault(
                            key, [fn["demangled_name"], fn["end_line"], 0])
                        entry[2] += fn["execution_count"]
                    for ln in rec["lines"]:
                        key = (path, ln["line_number"])
                        lines[key] = lines.get(key, 0) + ln["count"]
    return funcs, lines


sys_funcs, sys_lines = load("perf.json", "system.json")
all_funcs, all_lines = load("perf.json", "tests.json")


def report(title, keys):
    total = sum(all_funcs[k][1] - k[1] + 1 for k in keys)
    print(f"## {title}: {len(keys)} functions, {total} lines")
    for k in sorted(keys):
        name, end, _ = all_funcs[k]
        print(f"{k[0]}:{k[1]}-{end}  {name}")
    print()


report("reached only by tests",
       [k for k, v in all_funcs.items()
        if v[2] > 0 and sys_funcs.get(k, [0, 0, 0])[2] == 0])
report("reached by nothing", [k for k, v in all_funcs.items() if v[2] == 0])
run = sum(1 for v in sys_lines.values() if v > 0)
both = sum(1 for v in all_lines.values() if v > 0)
print(f"executable src/ lines: {len(all_lines)}; reached by benches, "
      f"examples and fcc_perf: {run}; added by tests: {both - run}")
EOF
