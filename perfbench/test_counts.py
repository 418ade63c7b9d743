#!/usr/bin/env python3
"""Checks that the benchmark's machine-neutral counts repeat exactly.

    python3 perfbench/test_counts.py [workload ...] [--seed N]

Runs each workload's traced run (--trace 1) twice with one seed, starting
from an empty count history, and fails when the second run flags a count
that differs from the first. serve_eco's sta.incremental_updates is
reported but not failed: a moved-sink job seeds its incremental timer from
whichever earlier job on its topology finished last (see NOTES.md).
"""
import argparse
import glob
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMING_DEPENDENT = {("serve_eco", "sta.incremental_updates")}


def traced_run(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "30", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit("%s: run failed:\n%s" % (workload, out.stderr[-2000:]))
    return out.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*",
                    default=["table5", "local_2k", "serve_eco"])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 os.path.join(ROOT, ".bench_build"))
    failures = 0
    for wl in args.workloads:
        pattern = os.path.join(build_root, "perfbench-out",
                               "counts_%s_%d_*.json" % (wl, args.seed))
        for stale in glob.glob(pattern):
            os.remove(stale)
        traced_run(wl, args.seed)
        second = traced_run(wl, args.seed)
        flagged = re.findall(r"^count-repeat FLAG (\S+): (.*)$", second, re.M)
        if not flagged and "count-repeat OK" not in second:
            print("%s: no count comparison in the output" % wl)
            failures += 1
        for name, detail in flagged:
            known = (wl, name) in TIMING_DEPENDENT
            print("%s: %s %s: %s" % (wl, "timing-dependent" if known
                                     else "NOT REPEATED", name, detail))
            failures += 0 if known else 1
        if not flagged:
            print("%s: every count repeated" % wl)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
