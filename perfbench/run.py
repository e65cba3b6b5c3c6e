#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <learn-1t|fleet-read-1k|fleet-mixed-1k>
                             --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first run configures and builds the
library and the benchmark (Release) into .bench_build/; later runs only
rebuild what changed. Build output goes to stderr. The benchmark's own
output, whose last line is the JSON result, goes to stdout, and its exit
code is passed on. A traced run also writes its spans to
.bench_build/traces/<workload>-seed<n>.csv.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, stdout):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: timed out after {timeout}s: {' '.join(cmd)}",
              file=sys.stderr)
        return None


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return False
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        code = run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, sys.stderr)
        if code != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    code = run(["cmake", "--build", BUILD, "--target", "perfbench",
                "-j", jobs], BUILD_TIMEOUT_S, sys.stderr)
    return code == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.csv")]
    sys.stdout.flush()
    code = run(cmd, RUN_TIMEOUT_S, None)
    return 1 if code is None else code


if __name__ == "__main__":
    sys.exit(main())
