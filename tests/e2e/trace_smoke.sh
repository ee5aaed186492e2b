#!/bin/sh
# Flight-recorder smoke. A traced sweep must emit a Chrome trace that
# parses, holds only complete X events, nests per thread and covers the
# pool, sweep and saturation layers, and --telemetry must print a snapshot
# carrying the hot-path counters. A traced search must cover its steps and
# saturation probes. Every file lands in a scratch directory.
#
#   sh tests/e2e/trace_smoke.sh path/to/python3 path/to/check_trace.py \
#       path/to/design_sweep path/to/search_arrangement
set -eu
python=$1
check=$2
sweep=$3
search=$4
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

"$sweep" --threads 4 --trace "$dir/trace_events.json" --telemetry 4 7 \
  > "$dir/sweep_telemetry.out"
"$python" "$check" "$dir/trace_events.json" --min-events 50 \
  --require-name pool.job --require-name sweep.job \
  --require-name sat.probe --require-name sat.search
grep -q '"sim.flits_routed"' "$dir/sweep_telemetry.out"
grep -q '"cache.shard00.misses"' "$dir/sweep_telemetry.out"

"$search" hexamesh 13 3 --threads 4 \
  --chrome-trace "$dir/search_events.json" > /dev/null
"$python" "$check" "$dir/search_events.json" \
  --require-name search.step --require-name sat.probe
echo "trace_smoke: sweep and search traces pass check_trace.py"
