#!/usr/bin/env python3
"""End-to-end benchmark of the HexaMesh evaluator, its search, and its server.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: fig7-sat, search-latency, analytic-scale, server-warm (see
perfbench/src/workloads.cpp for what each one drives and why).

The script builds perfbench/ (which pulls the library from the checkout's
own sources) into .bench_build/perfbench with CMake, in Release, then runs
one workload. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: every end-to-end metric with
--trace 0, every per-layer metric with --trace 1 (spans are also written to
.bench_build/perfbench/run/trace-<workload>-<seed>*.json). The line before
it carries the host fingerprint (nproc, CPU, compiler, build type, commit).

`--smoke` runs a few ops instead of a full window (see smoke_test.py).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "hm_perfbench")
WORK = os.path.join(BUILD, "run")
WORKLOADS = ("fig7-sat", "search-latency", "analytic-scale", "server-warm")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "2"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds hm_perfbench; build output to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, *gen,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "hm_perfbench",
                    "-j", BUILD_JOBS],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run(workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns (exit code, stdout lines)."""
    os.makedirs(WORK, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--expected", os.path.join(HERE, "expected.txt"),
           "--work-dir", os.path.relpath(WORK, ROOT), "--commit", commit()]
    if smoke:
        cmd.append("--smoke")
    # cwd = checkout root keeps the server's socket path short and relative.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return 1, []
    return proc.returncode, out.splitlines()


def parse_result(lines):
    """The last line's result object, or None when it is malformed."""
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(res, dict) or set(res) != {"correct", "attempted",
                                                 "failed", "metrics"}:
        return None
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    code, lines = run(args.workload, args.seed, args.seconds, args.trace,
                      args.smoke)
    if code != 0 or parse_result(lines) is None:
        log(f"{args.workload}: exit {code}, no valid result")
        return code or 1
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
