#!/usr/bin/env python3
"""Perf-regression gate for BENCH_perf.json.

Compares a freshly measured perf JSON against the committed baseline and
fails (exit 1) when:

  * a guarded timing (sim_cycle.*, sim_cycle_lowload.*, the analytic
    half's bisection.*, diameter.* and evaluate_analytic.*, the uncached
    routing-table build routing_tables_build.*, which every search
    candidate and fault re-route pays, or sweep21.wall_s.t1) regressed
    by more than --max-regression (default 1.25, i.e. >25% slower/worse)
    — direction-aware: for the sim_cycle_lowload.speedup.* ratios a
    *drop* below baseline / max-regression is the failure, while for
    durations a rise above baseline * max-regression is, or
  * a saturation-search probe count (sat.probes.*) rose above its
    baseline at all. Probe counts are deterministic work counts, not
    timings: the same code on any host runs the same probes, so they get
    no headroom (7 -> 8 fails), or
  * the 8-thread sweep speedup dropped below --min-speedup-t8 (default 2.0).

search.* metrics (the arrangement-search subsystem: end-to-end search
wall clock, evaluations/s and best/baseline ratio) are compared with the
same threshold but WARN-ONLY: their baseline was measured on one host
class and needs a few CI runs to settle before gating hard. Promote the
prefix from WARN_PREFIXES to GUARDED_PREFIXES once the numbers are
stable.

The speedup check only applies when the measuring host can scale at all:
it is skipped (with a note) when the fresh JSON's host.hardware_threads —
or, absent that key, this machine's cpu count — is below
--min-cores-for-scaling (default 4). A 1-core CI runner measuring
speedup.t8 ~= 1.0 is oversubscription, not a contention regression.

Caveat: the guarded timings are absolute wall-clock numbers, so the
baseline and the fresh measurement ideally come from the same host class.
The default 1.25x headroom absorbs typical per-core variance between CI
runners; if the runner fleet changes for good, re-baseline the committed
BENCH_perf.json (or tune --max-regression) instead of accepting a
permanently red or permanently vacuous gate. Take a re-baseline from runs
at more than one sitting: on a shared 4-vCPU Intel Xeon VM, six runs of
one bench_perf_micro binary read every sim_cycle* median 1.25-1.49x
higher than six runs of it 14 hours earlier, so the earlier runs'
per-key maxima failed five of the later six.

Usage: check_perf_regression.py BASELINE_JSON FRESH_JSON [options]
"""

import argparse
import json
import os
import sys

GUARDED_PREFIXES = ("sim_cycle.", "sim_cycle_lowload.", "sat.probes.",
                    "bisection.", "diameter.", "evaluate_analytic.",
                    "routing_tables_build.")
GUARDED_KEYS = ("sweep21.wall_s.t1",)
# Guarded metrics where *higher* is better (speedup ratios): a drop below
# baseline / max-regression is the failure, not a rise above it.
GUARDED_HIGHER_IS_BETTER = ("sim_cycle_lowload.speedup.",)
# Guarded deterministic work counts: any rise above the baseline fails,
# whatever --max-regression says.
GUARDED_EXACT_COUNTS = ("sat.probes.",)
# Compared and reported, but never fail the gate (first-PR baselines).
# Ratio-style search metrics where *lower* is the regression direction are
# listed separately so the warning fires the right way around.
WARN_PREFIXES = ("search.", "telemetry.", "fault.", "store.")
WARN_HIGHER_IS_BETTER = ("search.best_over_baseline.",
                         "search.e2e_evals_per_s.",
                         "search.tempering.best_over_baseline.",
                         "search.tempering.e2e_evals_per_s.",
                         "store.warm_speedup")
# Workload counts, not timings: reported for the record, never compared
# against a ratio threshold (a different proposal mix is not a slowdown).
COUNT_KEYS = ("search.e2e_evaluations.", "search.tempering.evaluations.",
              "search.tempering.exchange_accept_rate.")


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise SystemExit(f"{path}: expected a flat JSON object")
    return {k: float(v) for k, v in data.items()
            if isinstance(v, (int, float))}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", help="committed BENCH_perf.json")
    ap.add_argument("fresh", help="freshly measured perf JSON")
    ap.add_argument("--max-regression", type=float, default=1.25,
                    help="fail when fresh > baseline * this (default 1.25)")
    ap.add_argument("--min-speedup-t8", type=float, default=2.0,
                    help="minimum sweep21.speedup.t8 (default 2.0)")
    ap.add_argument("--min-cores-for-scaling", type=int, default=4,
                    help="skip the speedup check below this core count")
    args = ap.parse_args()

    baseline = load(args.baseline)
    fresh = load(args.fresh)
    failures = []

    for key in sorted(fresh):
        guarded = key in GUARDED_KEYS or key.startswith(GUARDED_PREFIXES)
        warn_only = key.startswith(WARN_PREFIXES)
        if not guarded and not warn_only:
            continue
        if key not in baseline:
            print(f"  new metric (no baseline): {key} = {fresh[key]:.6g}")
            continue
        if key.startswith(COUNT_KEYS):
            print(f"  {key}: {baseline[key]:.6g} -> {fresh[key]:.6g} "
                  f"(count; not compared)")
            continue
        ratio = fresh[key] / baseline[key] if baseline[key] > 0 else 1.0
        limit = args.max_regression
        # For throughput/speedup-style metrics a *drop* is the regression.
        if key.startswith(WARN_HIGHER_IS_BETTER + GUARDED_HIGHER_IS_BETTER):
            regressed = ratio < 1.0 / limit
        elif key.startswith(GUARDED_EXACT_COUNTS):
            limit = 1.0
            regressed = fresh[key] > baseline[key]
        else:
            regressed = ratio > limit
        status = "ok"
        if regressed and guarded:
            status = "REGRESSION"
            failures.append(
                f"{key}: {baseline[key]:.6g} -> {fresh[key]:.6g} "
                f"({ratio:.2f}x, limit {limit:.2f}x)")
        elif regressed:
            status = "WARN (not gated yet)"
        print(f"  {key}: {baseline[key]:.6g} -> {fresh[key]:.6g} "
              f"({ratio:.2f}x) {status}")

    cores = int(fresh.get("host.hardware_threads") or os.cpu_count() or 1)
    speedup = fresh.get("sweep21.speedup.t8")
    if cores < args.min_cores_for_scaling:
        print(f"  sweep21.speedup.t8 check skipped: host has {cores} "
              f"core(s), need >= {args.min_cores_for_scaling} to scale")
    elif speedup is None:
        print("  sweep21.speedup.t8 missing from fresh JSON; skipped")
    else:
        ok = speedup >= args.min_speedup_t8
        print(f"  sweep21.speedup.t8 = {speedup:.2f} "
              f"(min {args.min_speedup_t8:.2f}) {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(
                f"sweep21.speedup.t8 = {speedup:.2f} < "
                f"{args.min_speedup_t8:.2f} on a {cores}-core host")

    if failures:
        print("\nperf gate FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
