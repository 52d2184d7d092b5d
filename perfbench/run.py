#!/usr/bin/env python3
"""Builds and runs the GDMS end-to-end benchmark.

    python3 perfbench/run.py --workload section2_map --seed 1 --seconds 20 \
        --trace 0

Run from the root of a source checkout. The benchmark binary is built from
../src into .bench_build/perfbench (Release, Ninja when available); build
output goes to stderr so that the last line of stdout stays the result JSON
the binary prints. With --trace 1 the span log is written to
.bench_build/spans/<workload>-<seed>.jsonl. `--workload all` runs the three
workloads in turn, each printing its own report and result line, and exits
non-zero if any of them does. Exits non-zero, without a result, when the
sources are missing or the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
WORKLOADS = ("section2_map", "serve_mixed", "gdmz_ingest")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def nproc():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def build():
    """Configures once, then builds incrementally; True on success."""
    tmp = BUILD_ROOT / "tmp"  # compiler scratch stays inside the checkout
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            return False
    cmd = ["cmake", "--build", str(BUILD_DIR), "-j", str(nproc())]
    return subprocess.run(cmd, stdout=sys.stderr, env=env,
                          timeout=BUILD_TIMEOUT_S).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "core" / "runner.h").is_file():
        print("perfbench: GDMS sources not found under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    try:
        if not build():
            print("perfbench: build failed", file=sys.stderr)
            return 3
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 3

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(w, args) for w in workloads)


def run_workload(workload, args):
    """Runs the benchmark binary for one workload; returns its exit code."""
    cmd = [str(BUILD_DIR / "perfbench"),
           "--workload", workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--workdir", str(BUILD_ROOT / ("run-%d" % os.getpid()))]
    if args.trace:
        spans = BUILD_ROOT / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / ("%s-%d.jsonl" % (workload,
                                                          args.seed)))]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
