#!/usr/bin/env python3
"""Runs a command and records its peak resident set size and wall time.

    python3 bench/max_rss.py ROWS_FILE LABEL -- COMMAND [ARGS...]

Runs COMMAND with the caller's environment, appends the markdown table row
"| LABEL | <peak RSS in MB> | <wall time in s> |" to ROWS_FILE, and exits
with COMMAND's status. The peak is ru_maxrss of RUSAGE_CHILDREN: the
largest resident set of any child this process has waited for, which is
COMMAND alone.
"""
import resource
import subprocess
import sys
import time


def main() -> int:
    if len(sys.argv) < 5 or sys.argv[3] != "--":
        sys.exit(__doc__)
    rows, label, cmd = sys.argv[1], sys.argv[2], sys.argv[4:]
    start = time.monotonic()
    status = subprocess.run(cmd, check=False).returncode
    wall_s = time.monotonic() - start
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KiB
    with open(rows, "a", encoding="utf-8") as f:
        f.write(f"| {label} | {peak_kib / 1024:.1f} | {wall_s:.1f} |\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
