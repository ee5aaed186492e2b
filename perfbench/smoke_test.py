#!/usr/bin/env python3
"""Smoke test of the benchmark: a few ops per workload, untraced and traced.

    python3 perfbench/smoke_test.py

For every workload it checks that run.py exits 0, that the last line has
exactly the keys correct/attempted/failed/metrics, that every output check
passed (reference digests from perfbench/expected.txt, byte-identical server
replies), and that the metric names and units are exactly those declared in
BENCHMARK.json (end_to_end untraced, per_layer traced). Takes about a minute.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig7-sat", "search-latency", "analytic-scale", "server-warm")


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS), \
        "BENCHMARK.json workloads differ from run.py"
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def check(workload, trace, want):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "2", "--trace", str(trace),
           "--smoke"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    errors = []
    if out.returncode != 0:
        return [f"exit {out.returncode}: {out.stderr[-400:]}"]
    lines = out.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    info = json.loads(lines[-2])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(res)}")
    if res["correct"] is not True or res["failed"] != 0:
        errors.append(f"output check failed: {info.get('problems')}, "
                      f"failed={res['failed']}")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        errors.append(f"attempted={res['attempted']}")
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        errors.append(f"metrics/units differ: missing "
                      f"{sorted(set(want) - set(got))}, extra "
                      f"{sorted(set(got) - set(want))}, units "
                      f"{sorted(k for k in got if k in want and got[k] != want[k])}")
    for k, v in res["metrics"].items():
        if not isinstance(v["value"], (int, float)) or not math.isfinite(
                v["value"]):
            errors.append(f"{k} is not a finite number")
    for key in ("nproc", "cpu", "compiler", "build_type", "commit"):
        if key not in info.get("host", {}):
            errors.append(f"host fingerprint lacks {key}")
    if trace:
        stem = os.path.join(ROOT, ".bench_build", "perfbench", "run",
                            f"trace-{workload}-7")
        for path in (stem + ".json", stem + "-setup.json"):
            with open(path) as f:
                spans = json.load(f)["spans"]
            if path == stem + ".json" and not spans:
                errors.append("trace file holds no spans")
        if res["metrics"]["trace.overhead_ratio"]["value"] <= 0:
            errors.append("trace.overhead_ratio missing")
    return errors


def main():
    e2e, layers = declared()
    failed = False
    for workload in WORKLOADS:
        for trace, want in ((0, e2e), (1, layers)):
            errors = check(workload, trace, want)
            status = "ok" if not errors else "FAIL"
            print(f"{workload} trace={trace}: {status}", flush=True)
            for e in errors:
                print(f"  {e}")
            failed = failed or bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
