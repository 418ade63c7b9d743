#!/usr/bin/env python3
"""Builds and runs the skewopt end-to-end benchmark.

    python3 perfbench/run.py --workload table5|local_2k|serve_eco \
        --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark is a CMake project of its own
(perfbench/CMakeLists.txt) over the library sources in src/; it is built
under $CARGO_TARGET_DIR (default .bench_build) on every call, which is a
no-op once built. Build output goes to stderr; stdout carries the
benchmark's report and, as its last line, one JSON result object. Trace
and count files land in <build dir>/perfbench-out. See perfbench/NOTES.md.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175
TRACE_RING_SLOTS = 65536


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0 and sha.stdout.strip():
                return sha.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:12]


def build(build_root):
    bdir = os.path.join(build_root, "perfbench")
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(build_root, "tmp")  # compiler scratch
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target",
                  "skewbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            die("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "skewbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["table5", "local_2k", "serve_eco"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 os.path.join(ROOT, ".bench_build"))
    exe = build(build_root)
    out_dir = os.path.join(build_root, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, "--commit", source_id()]
    # The traced serve_eco run records about 25,000 spans on its generator
    # thread; the rings must hold every span of the run (a dropped span
    # fails the run).
    env = dict(os.environ, SKEWOPT_TRACE_CAPACITY=str(TRACE_RING_SLOTS))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        die("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        die("benchmark exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("benchmark printed no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        die("malformed result line")
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
