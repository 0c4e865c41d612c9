#!/usr/bin/env python3
"""Parent-vs-change host measurement: alternating pairs of bench/perf runs.

    python3 bench/perf_pairs.py --parent REV --out FILE.json [--pairs 10]
        [--traced-runs 3] [--work DIR]

Exports the parent commit (with `git archive`) and the change (a copy of
the working tree's tracked and untracked, unignored files) into two
directories under --work, so the repository's own checkout and git
metadata are untouched, and builds each tree's bench/perf in Release.
Then, for each pair and each workload of BENCHMARK.json, it runs parent
and change one after the other for BENCHMARK.json's run_seconds, swapping
which goes first on every pair, each from a shell (`bash -c`): launched
straight from Python, fcc_perf would report this interpreter's peak RSS as
its own floor.

Every pair also runs a third tree, "padded": the change plus one unused
noinline function appended to the first src/ translation unit, which
shifts the code of every later function. A host-clock win that the padded
tree loses is a code-layout artefact, not the change's (serve_2x4 setup_s
once moved ~20% from one 16-byte function). A win is what a claimed gain
must show: the change better in at least 9 of 10 pairs, and its median
better than the parent's by more than the parent's interquartile range.
For every metric the change wins, the script prints whether the padded
tree wins it too.

--traced-runs K adds K alternating traced pairs of paper_ops for the
per-layer metrics (hw.write_time_ns.*, sim.events, ...).

The JSON written to --out holds the host fingerprint, the commits, and per
workload and metric each side's median, q1 and q3, the pairs the change
wins, its median change against the parent next to the metric's bound,
the padded tree's summary against the parent and whether each win
survives it, plus src/ lines per layer of each tree. The last stdout line
is a one-line summary for a change log.
"""
import argparse
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def fresh_dir(dest):
    if os.path.exists(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)


def export_commit(rev, dest):
    """Writes commit `rev` into `dest`; returns its full hash."""
    fresh_dir(dest)
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return git("rev-parse", rev)


def export_worktree(dest):
    """Copies the working tree's tracked and untracked, unignored files into
    `dest`; returns HEAD's hash, marked "+worktree" if any of them differ."""
    fresh_dir(dest)
    files = git("ls-files", "-z", "--cached", "--others",
                "--exclude-standard").split("\0")
    for f in filter(None, files):
        src = os.path.join(ROOT, f)
        if not os.path.isfile(src):
            continue  # deleted in the working tree
        os.makedirs(os.path.dirname(os.path.join(dest, f)), exist_ok=True)
        shutil.copy2(src, os.path.join(dest, f))
    dirty = git("status", "--porcelain")
    return git("rev-parse", "HEAD") + ("+worktree" if dirty else "")


# The layout probe: appended to the first src/ translation unit in link
# order, so every function after it moves.
PAD_FUNCTION = """
// Layout probe (bench/perf_pairs.py): unused, shifts later code.
[[gnu::noinline, gnu::used]] int fcc_layout_probe_pad(int x) {
  return x * 3 + 1;
}
"""


def pad_tree(tree):
    """Appends PAD_FUNCTION to `tree`'s first src/*.cc in sorted order."""
    sources = sorted(os.path.relpath(os.path.join(d, f), tree)
                     for d, _, fs in os.walk(os.path.join(tree, "src"))
                     for f in fs if f.endswith(".cc"))
    with open(os.path.join(tree, sources[0]), "a", encoding="utf-8") as f:
        f.write(PAD_FUNCTION)
    return sources[0]


def build(tree):
    cmd = ["cmake", "-S", f"{tree}/bench/perf", "-B", f"{tree}/build/perf",
           "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    subprocess.run(["cmake", "--build", f"{tree}/build/perf", "-j",
                    str(os.cpu_count() or 2)], check=True,
                   stdout=subprocess.DEVNULL)


def run(tree, workload, seconds, trace):
    """One fcc_perf run from a shell; returns (result JSON, fingerprint)."""
    cmd = (f"bash {shlex.quote(tree)}/bench/perf/run.sh --workload "
           f"{workload} --seed 1 --seconds {seconds} --trace {trace}; "
           "exit $?")
    proc = subprocess.run(["bash", "-c", cmd], capture_output=True,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{tree} {workload} failed ({proc.returncode}):\n"
                 f"{proc.stderr}")
    fingerprint = next((json.loads(l[len("fingerprint "):]) for l in lines
                        if l.startswith("fingerprint ")), {})
    return json.loads(lines[-1]), fingerprint


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def summarize(parent_runs, change_runs, better, bounds):
    """Per metric: each side's median and quartiles, and pair wins."""
    out = {}
    for name in parent_runs[0]["metrics"]:
        par = [r["metrics"][name]["value"] for r in parent_runs]
        chg = [r["metrics"][name]["value"] for r in change_runs]
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        wins = sum(1 for p, c in zip(par, chg) if sign * (c - p) < 0)
        ties = sum(1 for p, c in zip(par, chg) if c == p)
        pm, cm = statistics.median(par), statistics.median(chg)
        entry = {"unit": parent_runs[0]["metrics"][name]["unit"],
                 "better": better.get(name, "lower"),
                 "parent": {"median": pm, "q1": quartiles(par)[0],
                            "q3": quartiles(par)[1], "values": par},
                 "change": {"median": cm, "q1": quartiles(chg)[0],
                            "q3": quartiles(chg)[1], "values": chg},
                 "change_wins": wins, "ties": ties, "pairs": len(par),
                 "median_rel": (cm - pm) / pm if pm else 0.0}
        if name in bounds:
            entry["bound"] = bounds[name]
            entry["within_bound"] = sign * entry["median_rel"] <= bounds[name]
        out[name] = entry
    return out


def is_win(entry):
    """A claimable gain: the change better in >= 90% of the pairs, and its
    median better than the parent's by more than the parent's IQR."""
    sign = -1.0 if entry["better"] == "higher" else 1.0
    par = entry["parent"]
    gap = sign * (entry["change"]["median"] - par["median"])
    return (entry["change_wins"] >= 0.9 * entry["pairs"]
            and gap < 0 and -gap > par["q3"] - par["q1"])


def layout_check(change, padded):
    """Per metric the change wins: whether the padded tree wins it too."""
    return {name: is_win(padded[name]) for name, e in change.items()
            if is_win(e)}


def src_lines(tree):
    layers = {}
    src = os.path.join(tree, "src")
    for layer in sorted(os.listdir(src)):
        d = os.path.join(src, layer)
        if os.path.isdir(d):
            total = 0
            for f in os.listdir(d):
                with open(os.path.join(d, f), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
            layers[layer] = total
    layers["total"] = sum(layers.values())
    return layers


def host():
    model = ""
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next((l.split(":", 1)[1].strip() for l in f
                          if l.startswith("model name")), "")
    return {"cpu": model or platform.processor(), "nproc": os.cpu_count(),
            "kernel": platform.release(), "python": platform.python_version()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--traced-runs", type=int, default=0)
    ap.add_argument("--work", default=os.path.join(ROOT, "build", "pairs"))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    sides = ("parent", "change", "padded")
    trees = {side: os.path.join(args.work, side) for side in sides}
    commits = {"parent": export_commit(args.parent, trees["parent"]),
               "change": export_worktree(trees["change"])}
    export_worktree(trees["padded"])
    commits["padded"] = (commits["change"] + "+pad:" +
                         pad_tree(trees["padded"]))
    for side, tree in trees.items():
        print(f"building {side} ({commits[side]})", file=sys.stderr)
        build(tree)

    def alternate(workload, pairs, trace, run_sides=sides):
        runs = {side: [] for side in run_sides}
        fingerprint = {}
        for i in range(pairs):
            # Rotate the order, so no side always runs first or last.
            k = i % len(run_sides)
            for side in run_sides[k:] + run_sides[:k]:
                print(f"pair {i + 1}/{pairs} {workload} trace={trace} {side}",
                      file=sys.stderr)
                result, fp = run(trees[side], workload, seconds, trace)
                runs[side].append(result)
                fingerprint = fp or fingerprint
        return runs, fingerprint

    report = {"host": host(), "commits": commits, "pairs": args.pairs,
              "seconds": seconds, "workloads": {},
              "src_lines": {side: src_lines(t) for side, t in trees.items()}}
    for w in workloads:
        runs, fp = alternate(w, args.pairs, 0)
        report["host"].setdefault("build", {
            k: v for k, v in fp.items()
            if k not in ("workload", "seed", "commit", "threads")})
        metrics = summarize(runs["parent"], runs["change"], better, bounds)
        padded = summarize(runs["parent"], runs["padded"], better, bounds)
        report["workloads"][w] = {
            "correct": all(r["correct"] for side in runs.values()
                           for r in side),
            "failed": {s: sum(r["failed"] for r in rs)
                       for s, rs in runs.items()},
            "metrics": metrics,
            "padded": padded,
            "win_survives_padding": layout_check(metrics, padded)}
    if args.traced_runs > 0:
        runs, _ = alternate("paper_ops", args.traced_runs, 1,
                            ("parent", "change"))
        report["traced"] = {
            "workload": "paper_ops", "runs": args.traced_runs,
            "metrics": summarize(runs["parent"], runs["change"], better, {})}

    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")

    for w, r in report["workloads"].items():
        for name, survives in r["win_survives_padding"].items():
            c, p = r["metrics"][name], r["padded"][name]
            print(f"layout check: {w} {name} change "
                  f"{100 * c['median_rel']:+.1f}% ({c['change_wins']}/"
                  f"{c['pairs']}), padded {100 * p['median_rel']:+.1f}% "
                  f"({p['change_wins']}/{p['pairs']}): "
                  f"{'survives' if survives else 'LAYOUT ARTEFACT'}")

    parts = []
    for w, r in report["workloads"].items():
        m = r["metrics"]
        host_metrics = ", ".join(
            f"{k} {m[k]['parent']['median']:.4g}->"
            f"{m[k]['change']['median']:.4g} "
            f"({100 * m[k]['median_rel']:+.1f}%, change better in "
            f"{m[k]['change_wins']}/{m[k]['pairs']})"
            for k in ("wall_s", "setup_s", "peak_rss_mb") if k in m)
        same = all(m[k]["parent"]["values"] == m[k]["change"]["values"]
                   for k in ("sim_us", "sim_ratio") if k in m)
        parts.append(f"{w} {host_metrics}, sim_us and sim_ratio "
                     f"{'identical' if same else 'DIFFER'}")
    checks = [v for r in report["workloads"].values()
              for v in r["win_survives_padding"].values()]
    parts.append(f"{sum(checks)} of {len(checks)} wins survive the layout "
                 "check")
    lines = report["src_lines"]
    print(f"{args.pairs} alternating pairs x {seconds:g} s on "
          f"{report['host']['cpu']} ({report['host']['nproc']} cores), "
          f"parent {commits['parent'][:12]} vs change "
          f"{commits['change'][:12]}: " + "; ".join(parts) +
          f"; src/ {lines['parent']['total']} -> {lines['change']['total']} "
          "lines.")


if __name__ == "__main__":
    main()
