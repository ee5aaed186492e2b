#!/bin/sh
# Persistent result store, end to end. A warm re-run of a sweep must be
# byte-identical to the cold run and served from the store alone, with no
# store miss; HM_CACHE_DIR must arm the store like --cache-dir; and the
# hm_cache maintenance cycle (verify, stats, merge, compact) must keep every
# live record while compaction drops the superseded ones. Every store lands
# in a scratch directory.
#
#   sh tests/e2e/persistent_cache.sh path/to/design_sweep path/to/hm_cache
set -eu
sweep=$1
cache=$2
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

# Prints counter $1 (a sed pattern) of the --telemetry snapshot in file $2;
# prints nothing when the snapshot lacks it.
counter() {
  sed -n "s/.*\"$1\" *: *\([0-9]*\).*/\1/p" "$2"
}

# Fails unless the --telemetry snapshot in file $1 shows store hits and no
# store miss.
served_from_store() {
  hits=$(counter 'store\.hits' "$1")
  misses=$(counter 'store\.misses' "$1")
  test "${hits:-0}" -gt 0
  test "${misses:-0}" -eq 0
}

# Prints the superseded-record count `hm_cache stats` reports for store $1.
superseded() {
  "$cache" stats "$1" | sed -n 's/.* \([0-9]*\) superseded records.*/\1/p'
}

# The cold run simulates and seeds the store; the warm re-run of the same
# spec must be byte-identical and served entirely from disk.
"$sweep" --threads 4 --cache-dir "$dir/store_a" --telemetry \
  --csv "$dir/cold.csv" 4 7 > "$dir/cold.out"
"$sweep" --threads 4 --cache-dir "$dir/store_a" --telemetry \
  --csv "$dir/warm.csv" 4 7 > "$dir/warm.out"
cmp "$dir/cold.csv" "$dir/warm.csv"
served_from_store "$dir/warm.out"

# HM_CACHE_DIR arms the store without --cache-dir.
HM_CACHE_DIR="$dir/store_env" "$sweep" --threads 2 \
  --csv "$dir/env_cold.csv" 4 > /dev/null
ls "$dir"/store_env/seg-*.hms
HM_CACHE_DIR="$dir/store_env" "$sweep" --threads 2 \
  --csv "$dir/env_warm.csv" 4 > /dev/null
cmp "$dir/env_cold.csv" "$dir/env_warm.csv"

# Maintenance: verify, stats and merge.
"$sweep" --threads 4 --cache-dir "$dir/store_b" --csv "$dir/b.csv" 9 \
  > /dev/null
"$cache" verify "$dir/store_a"
"$cache" verify "$dir/store_b"
"$cache" stats "$dir/store_a"
"$cache" merge "$dir/store_merged" "$dir/store_a" "$dir/store_b"
"$cache" verify "$dir/store_merged"

# A twin merge writes the same records to a segment of another name. Copied
# into the merged store, they supersede its records, so compaction has
# records to drop, and it must drop all of them.
"$cache" merge "$dir/twin" "$dir/store_a" "$dir/store_b" > /dev/null
cp "$dir"/twin/seg-*.hms "$dir/store_merged/"
test "$(superseded "$dir/store_merged")" -gt 0
"$cache" compact "$dir/store_merged"
"$cache" verify "$dir/store_merged"
test "$(superseded "$dir/store_merged")" -eq 0
"$cache" stats "$dir/store_merged"

# The compacted store still serves the cold sweep in full.
"$sweep" --threads 4 --cache-dir "$dir/store_merged" --telemetry \
  --csv "$dir/compacted.csv" 4 7 > "$dir/compacted.out"
cmp "$dir/cold.csv" "$dir/compacted.csv"
served_from_store "$dir/compacted.out"
echo "persistent_cache: warm runs served from the store, byte-identical;" \
  "compaction dropped every superseded record"
