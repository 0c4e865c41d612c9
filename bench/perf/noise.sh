#!/usr/bin/env bash
# Noise tool: runs each workload of BENCHMARK.json N times through run.sh,
# untraced, with seeds 1..N and the budget BENCHMARK.json sets, and prints
# per end-to-end metric the median, the quartiles, min and max, and the
# quartile spread as a share of the median next to the metric's bound.
# The JSON report (with the host fingerprint) goes to stdout, a table to
# stderr; spreads at or above a third of the bound are flagged.
#
#   bench/perf/noise.sh N
#
# Run logs stay in build/perf/noise/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
spec="$root/BENCHMARK.json"

runs="${1:?usage: noise.sh N}"
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")"
mapfile -t workloads < <(python3 -c 'import json, sys; [print(w["name"]) for w in json.load(open(sys.argv[1]))["workloads"]]' "$spec")

logs="$root/build/perf/noise"
mkdir -p "$logs"
for w in "${workloads[@]}"; do
  for seed in $(seq 1 "$runs"); do
    echo "noise: $w seed $seed" >&2
    bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" \
      --trace 0 > "$logs/$w.$seed.out" 2> "$logs/$w.$seed.err"
  done
done

python3 - "$spec" "$logs" "$runs" "$seconds" "${workloads[@]}" << 'PY'
import json
import statistics
import sys

spec_path, logs, runs, seconds = sys.argv[1:5]
workloads = sys.argv[5:]
with open(spec_path) as f:
    spec = json.load(f)
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

report = {"runs": int(runs), "seconds": float(seconds), "fingerprint": None,
          "workloads": {}}
for w in workloads:
    values, failed, attempted, correct = {}, 0, 0, True
    units = {}
    for seed in range(1, int(runs) + 1):
        with open(f"{logs}/{w}.{seed}.out") as f:
            lines = f.read().strip().splitlines()
        for line in lines:
            if line.startswith("fingerprint ") and report["fingerprint"] is None:
                fp = json.loads(line[len("fingerprint "):])
                fp.pop("workload", None)
                fp.pop("seed", None)
                fp.pop("threads", None)
                report["fingerprint"] = fp
        result = json.loads(lines[-1])
        correct &= result["correct"]
        failed += result["failed"]
        attempted += result["attempted"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    metrics = {}
    for name, xs in values.items():
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
        med = statistics.median(xs)
        metrics[name] = {
            "unit": units[name], "median": med, "q1": q1, "q3": q3,
            "min": min(xs), "max": max(xs),
            "spread": (q3 - q1) / med if med else 0.0,
            "bound": bounds[name], "values": xs,
        }
    report["workloads"][w] = {"correct": correct, "attempted": attempted,
                              "failed": failed, "metrics": metrics}

for w, r in report["workloads"].items():
    print(f"{w}: correct={r['correct']} failed={r['failed']}/{r['attempted']}",
          file=sys.stderr)
    for name, m in r["metrics"].items():
        flag = "  <-- spread >= bound/3" if m["spread"] >= m["bound"] / 3 else ""
        print(f"  {name:12s} median {m['median']:<14.6g} q1 {m['q1']:<12.6g} "
              f"q3 {m['q3']:<12.6g} spread {m['spread']:.4f} "
              f"bound {m['bound']}{flag}", file=sys.stderr)
json.dump(report, sys.stdout, indent=1)
print()
PY
