#!/bin/sh
# Fault-storm determinism. stdout carries the per-plan resilience table and
# the flit-conservation check, the CSV every exported ResilienceStats
# field, so a byte difference between two runs of one command catches
# nondeterminism anywhere in the kill / re-route / repair / recovery
# pipeline. A seeded storm and an exhaustive kill+repair sweep each run
# twice; a second seed must still complete cleanly.
#
#   sh tests/e2e/fault_storm.sh path/to/fault_storm
set -eu
storm=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

# Runs `fault_storm "$@"` twice and compares stdout and CSV byte for byte.
# Both runs write the same CSV path, which stdout names.
twice() {
  "$storm" "$@" --csv "$dir/plans.csv" > "$dir/a.out"
  mv "$dir/plans.csv" "$dir/a.csv"
  "$storm" "$@" --csv "$dir/plans.csv" > "$dir/b.out"
  cmp "$dir/a.out" "$dir/b.out"
  cmp "$dir/a.csv" "$dir/plans.csv"
}

twice hexamesh 19 --singles 2 --storm 3 --seed 5
twice grid 16 --sweep --repair-after 800
"$storm" hexamesh 19 --singles 2 --storm 3 --seed 11 > /dev/null
echo "fault_storm: byte-identical across reruns of one command"
