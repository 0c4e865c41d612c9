#!/usr/bin/env python3
"""Checks bench outputs against the committed goldens in bench/golden/.

    check_golden.py [--update] BENCH_BINARY [BENCH_BINARY ...]

Runs each bench at the knobs CI uses, into a fresh temporary FCC_BENCH_OUT,
and compares every file it writes with bench/golden/<bench name>/:
  - a CSV is compared row by row after dropping its host-clock columns
    (HOST_COLUMNS), so only simulated values are pinned;
  - any other file (the Fig. 11 timeline JSON) is pinned by its sha256.
A bench without a golden directory must write no file. The check fails on
a nonzero exit, a missing or unexpected output, or any differing row, and
prints the differing rows and the command that regenerates the goldens.

--update rewrites the goldens of the given benches from this run instead.
A change that moves a simulated number regenerates them and lists the rows
that moved, and why, in its description.
"""
import difflib
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# The reduced sizes CI runs (.github/workflows/ci.yml). Fig. 15 runs on the
# serial engine only; CI's sharded byte-identity smoke covers 2/4/8 shards.
KNOBS = {
    "bench_degraded_fabric": {"FCC_DEGRADED_REQS": "120"},
    "bench_fig15_scaleout_dlrm": {"FCC_FIG15_SHARD_ITERS": "1",
                                  "FCC_FIG15_SHARD_MAX": "1"},
    "bench_serve_load": {"FCC_SERVE_BENCH_LOADS": "0.2,1.5",
                         "FCC_SERVE_SHARD_ITERS": "1",
                         "FCC_SERVE_SHARD_MAX": "2"},
    "bench_shard_scaling": {"FCC_SHARD_BENCH_MAX_PES": "256",
                            "FCC_SHARD_BENCH_ROUNDS": "6"},
}

# Columns measured on the host clock.
_SHARD_HOST = ("wall_ms", "speedup", "attainable_speedup", "barrier_ms",
               "critical_ms", "events_per_second")
HOST_COLUMNS = {
    "shard_scaling.csv": _SHARD_HOST,
    "fig15_fused_shard_scaling.csv": _SHARD_HOST,
}


def simulated_view(name, data):
    """The golden form of output `name`: CSV rows minus host columns, or
    the sha256 line of any other file."""
    if not name.endswith(".csv"):
        return f"{hashlib.sha256(data).hexdigest()}  {name}\n"
    text = data.decode()
    drop = HOST_COLUMNS.get(name)
    if not drop:
        return text
    rows = [line.split(",") for line in text.splitlines()]
    keep = [i for i, col in enumerate(rows[0]) if col not in drop]
    return "".join(",".join(r[i] for i in keep) + "\n" for r in rows)


def golden_name(name):
    return name if name.endswith(".csv") else name + ".sha256"


def run_bench(binary, out_dir):
    env = {k: v for k, v in os.environ.items() if not k.startswith("FCC_")}
    env.update(KNOBS.get(os.path.basename(binary), {}))
    env["FCC_BENCH_OUT"] = out_dir
    return subprocess.run([binary], env=env, cwd=out_dir,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, check=False)


def check(binary, update):
    bench = os.path.basename(binary)
    golden = os.path.join(GOLDEN_DIR, bench)
    errors = []
    with tempfile.TemporaryDirectory(prefix=bench + ".") as out_dir:
        proc = run_bench(binary, out_dir)
        if proc.returncode != 0:
            return [f"{bench}: exit {proc.returncode}\n{proc.stderr}"]
        got = {}
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as f:
                got[golden_name(name)] = simulated_view(name, f.read())
    if update:
        shutil.rmtree(golden, ignore_errors=True)
        if got:
            os.makedirs(golden)
        for name, text in got.items():
            with open(os.path.join(golden, name), "w", encoding="utf-8") as f:
                f.write(text)
        return []
    want = {}
    if os.path.isdir(golden):
        for name in sorted(os.listdir(golden)):
            with open(os.path.join(golden, name), encoding="utf-8") as f:
                want[name] = f.read()
    for name in sorted(set(want) | set(got)):
        if name not in got:
            errors.append(f"{bench}: did not write {name}")
        elif name not in want:
            errors.append(f"{bench}: wrote {name}, which has no golden")
        elif got[name] != want[name]:
            diff = difflib.unified_diff(
                want[name].splitlines(), got[name].splitlines(),
                f"golden/{bench}/{name}", "this run", n=0, lineterm="")
            header = want[name].split("\n", 1)[0]
            errors.append("\n".join([*diff, f"(columns: {header})"]
                                     if name.endswith(".csv") else diff))
    return errors


def main():
    args = sys.argv[1:]
    update = "--update" in args
    binaries = [a for a in args if a != "--update"]
    if not binaries:
        sys.exit(__doc__)
    errors = []
    for binary in binaries:
        errors += check(os.path.abspath(binary), update)
    if errors:
        print("\n".join(errors))
        print("\nIf the change is intended, regenerate the goldens with:\n"
              f"  python3 {os.path.relpath(__file__)} --update "
              + " ".join(binaries))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
