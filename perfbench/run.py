#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload ingest|bulk|serve --seed N \
        --seconds S --trace 0|1 [--zipf S] [--weights W1,...,W6]

The first run configures and builds perfbench/ (which compiles the library
from src/) into .bench_build/perfbench; later runs rebuild incrementally.
Stores, run records and trace files go to .bench_build/perfbench-out.
The last line of standard output is the run's JSON result.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "xmlrel_perfbench")
BUILD_TYPE = "RelWithDebInfo"


def commit_id():
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def build():
    """Configure (once) and build; build output goes to a log file."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(cache):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "xmlrel_perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT):
                break
        else:
            return True
    if len(steps) == 2 and os.path.exists(cache):
        os.remove(cache)  # configure again next time
    with open(log_path) as f:
        sys.stderr.write(f.read()[-4000:])
    sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
    return False


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ingest", "bulk", "serve"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # The query mix's assumptions (README, "Query mix"): Zipf exponent and
    # the six template weights; the defaults are 1.0 and equal weights.
    parser.add_argument("--zipf")
    parser.add_argument("--weights")
    args = parser.parse_args()

    if not build():
        return 2
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR, "--commit", commit_id()]
    if args.zipf is not None:
        cmd += ["--zipf", args.zipf]
    if args.weights is not None:
        cmd += ["--weights", args.weights]
    sys.stdout.flush()
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main())
