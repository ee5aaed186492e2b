#!/bin/sh
# Thread-count identity of the CLI exports. The determinism contract says
# one spec gives the same bytes at any thread count, so design_sweep's CSV
# and JSON exports and search_arrangement's trace must be byte-identical at
# 1 and 4 threads. The six runs are independent processes and run
# concurrently: under a sanitizer the single-threaded reference runs would
# otherwise dominate the wall time.
#
#   sh tests/e2e/thread_identity.sh path/to/design_sweep \
#       path/to/search_arrangement
set -eu
sweep=$1
search=$2
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

pids=
for t in 1 4; do
  "$sweep" --threads "$t" --csv "$dir/sweep_t$t.csv" 4 7 9 > /dev/null &
  pids="$pids $!"
  "$sweep" --threads "$t" --csv "$dir/sweep_t$t.json" 4 7 9 > /dev/null &
  pids="$pids $!"
  "$search" hexamesh 13 4 --threads "$t" --trace "$dir/trace_t$t.csv" \
    > /dev/null &
  pids="$pids $!"
done
for pid in $pids; do
  wait "$pid"
done

for f in sweep.csv sweep.json trace.csv; do
  base=${f%.*}
  ext=${f##*.}
  test -s "$dir/${base}_t1.$ext"
  cmp "$dir/${base}_t1.$ext" "$dir/${base}_t4.$ext"
done
echo "thread_identity: sweep CSV/JSON and search trace identical at 1 and 4 threads"
