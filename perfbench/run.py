#!/usr/bin/env python3
"""sketchd benchmark: build, then run one workload.

Builds sketchd and the load generator from this checkout with CMake into
.bench_build/ (incremental after the first run), then runs one workload
and passes the generator's output through. The last line of stdout is the
JSON result; build logs go to stderr.

    python3 perfbench/run.py --workload ingest_raw --seed 1 --seconds 20 --trace 0

Workloads: ingest_raw, ingest_sketches, query_mixed (see perfbench/README.md).
--trace 1 adds a traced segment and the per-layer replay, and reports the
per-layer metrics instead of the end-to-end ones.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("ingest_raw", "ingest_sketches", "query_mixed")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds both binaries; returns their paths."""
    cmake_dir = os.path.join(BUILD, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        generated = any(os.path.exists(os.path.join(cmake_dir, f))
                        for f in ("build.ninja", "Makefile"))
        if not generated:
            configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                         "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", cmake_dir,
                        "--parallel", str(os.cpu_count() or 4),
                        "--target", "sketchd", "sketchd_loadgen"],
                       check=True, stdout=sys.stderr)
    return (os.path.join(cmake_dir, "repo", "tools", "sketchd"),
            os.path.join(cmake_dir, "sketchd_loadgen"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        sketchd, loadgen = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 1

    command = [loadgen, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--sketchd", sketchd,
               "--work-dir", os.path.join(BUILD, "work")]
    try:
        # The generator's children (sketchd, its spinner) die with it.
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: the run did not finish in time", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
