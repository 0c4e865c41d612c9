#!/usr/bin/env python3
"""Smoke test of the perf benchmark (ctest perf_smoke).

Runs every workload of BENCHMARK.json at ~1/20 size, untraced and traced.
Each run must end with the result object, print every metric
BENCHMARK.json names for its mode (end_to_end untraced, per_layer traced)
and no other, each finite and with its unit, and fail no operation.

    smoke.py FCC_PERF_BINARY BENCHMARK_JSON
"""
import json
import math
import subprocess
import sys


def check_run(binary, workload, trace, expected):
    cmd = [binary, "--workload", workload, "--seed", "1", "--seconds", "0.05",
           "--trace", trace, "--smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()}"]
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return [f"{where}: no output"]
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
        return errors
    if result["correct"] is not True or result["failed"] != 0:
        errors.append(f"{where}: correct={result['correct']} "
                      f"failed={result['failed']}")
    if result["attempted"] < 1:
        errors.append(f"{where}: attempted={result['attempted']}")
    metrics = result["metrics"]
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            errors.append(f"{where}: missing {m['name']}")
        elif got["unit"] != m["unit"]:
            errors.append(f"{where}: {m['name']} unit {got['unit']}, "
                          f"expected {m['unit']}")
        elif not isinstance(got["value"], (int, float)) or not math.isfinite(
                got["value"]):
            errors.append(f"{where}: {m['name']} = {got['value']}")
    extra = set(metrics) - {m["name"] for m in expected}
    if extra:
        errors.append(f"{where}: metrics not in BENCHMARK.json: "
                      f"{sorted(extra)}")
    return errors


def main():
    binary, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as f:
        spec = json.load(f)
    errors = []
    for w in spec["workloads"]:
        errors += check_run(binary, w["name"], "0", spec["end_to_end"])
        errors += check_run(binary, w["name"], "1", spec["per_layer"])
    for e in errors:
        print(e)
    print(f"perf_smoke: {len(spec['workloads'])} workloads, "
          f"{len(errors)} problem(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
