#!/usr/bin/env python3
"""Validate a Chrome trace_event JSON file emitted by src/telemetry/trace.

tests/e2e/trace_smoke.sh (ctest e2e_trace_smoke) and CI's release trace
step run `design_sweep --trace out.json` and pipe the file through this
checker. It enforces the contract the tracer documents:

  * the file is valid JSON of the form {"traceEvents": [...]};
  * every event is a complete-duration event: ph == "X" with name/cat/ts/
    dur/pid/tid all present, dur >= 0 and ts >= 0;
  * per tid, events sorted by start time nest properly (a span that starts
    inside another ends inside it too — RAII scoping guarantees this, so a
    violation means the tracer dropped or mangled an event).

The file itself is in span *end* order (events are recorded when a span's
destructor runs), so the checker sorts by ts per tid before validating.

Usage: check_trace.py TRACE.json [--min-events N] [--require-name NAME]...

Exit code 0 when the trace passes, 1 with a diagnostic otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys

REQUIRED_KEYS = ("name", "cat", "ph", "ts", "dur", "pid", "tid")


def fail(msg: str) -> None:
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_events(events: list) -> None:
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            fail(f"event {i} is not an object: {ev!r}")
        for key in REQUIRED_KEYS:
            if key not in ev:
                fail(f"event {i} is missing {key!r}: {ev!r}")
        if ev["ph"] != "X":
            fail(f"event {i} is not a complete event (ph={ev['ph']!r})")
        if not isinstance(ev["name"], str) or not ev["name"]:
            fail(f"event {i} has an empty name")
        if ev["ts"] < 0 or ev["dur"] < 0:
            fail(f"event {i} has negative ts/dur: {ev!r}")


def check_nesting(events: list) -> None:
    """Spans on one thread come from RAII scopes, so when sorted by start
    time they must nest: a span starting inside an enclosing span must end
    by the time the enclosing span ends (within the 1 ns printing quantum —
    ts/dur are microseconds with 3 decimals)."""
    by_tid: dict = {}
    for ev in events:
        by_tid.setdefault(ev["tid"], []).append(ev)
    slack = 0.002  # two print quanta of rounding
    for tid, evs in sorted(by_tid.items()):
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: list = []
        for ev in evs:
            start, end = ev["ts"], ev["ts"] + ev["dur"]
            while stack and start >= stack[-1][1] - slack:
                stack.pop()
            if stack and end > stack[-1][1] + slack:
                fail(
                    f"tid {tid}: span {ev['name']!r} "
                    f"[{start:.3f}, {end:.3f}] overlaps the end of "
                    f"enclosing {stack[-1][0]!r} (ends {stack[-1][1]:.3f})"
                )
            stack.append((ev["name"], end))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace", help="Chrome trace_event JSON file")
    ap.add_argument("--min-events", type=int, default=1,
                    help="fail when the trace holds fewer events")
    ap.add_argument("--require-name", action="append", default=[],
                    help="span name that must appear at least once "
                         "(repeatable)")
    args = ap.parse_args()

    try:
        with open(args.trace, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        fail(f"cannot read {args.trace}: {exc}")
    except json.JSONDecodeError as exc:
        fail(f"{args.trace} is not valid JSON: {exc}")

    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail("top level must be an object with a traceEvents array")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        fail("traceEvents is not an array")
    if len(events) < args.min_events:
        fail(f"only {len(events)} events, expected >= {args.min_events}")

    check_events(events)
    check_nesting(events)

    names = {ev["name"] for ev in events}
    for required in args.require_name:
        if required not in names:
            fail(f"required span {required!r} never appears "
                 f"(saw: {', '.join(sorted(names))})")

    tids = {ev["tid"] for ev in events}
    print(f"check_trace: OK: {len(events)} events, {len(tids)} threads, "
          f"{len(names)} span names")


if __name__ == "__main__":
    main()
