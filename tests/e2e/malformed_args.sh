#!/bin/sh
# Malformed-argument rejection. Every case must exit in [1, 125]: a crash
# or signal reports 128+N and an accepted parse reports 0, and both fail.
# Guards the examples' checked parser (examples/cli_util.hpp) against
# regressions to bare strtoul/atof, the bench drivers' HM_THREADS, which
# goes through the same parser, hm_cache's refusal to create a store it
# only reads, and the perf drivers' argument check, which must exit before
# writing the perf JSON. Runs in a scratch directory, so the relative store
# paths below land there.
#
#   sh tests/e2e/malformed_args.sh path/to/bin_dir
# (bin_dir holds the example programs and the bench drivers)
set -u
b=$(cd "$1" && pwd)
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cd "$dir"

fail=0
check_rejects() {
  "$@" > /dev/null 2>&1
  rc=$?
  if [ "$rc" -lt 1 ] || [ "$rc" -gt 125 ]; then
    echo "FAIL (exit $rc, want 1..125): $*"
    fail=1
  else
    echo "ok (exit $rc): $*"
  fi
}

check_rejects "$b/quickstart" -5
check_rejects "$b/quickstart" 12abc
check_rejects "$b/quickstart" 99999999999999999999999
check_rejects "$b/arrangement_explorer" grid 12abc
check_rejects "$b/arrangement_explorer" grid -3
check_rejects "$b/design_sweep" -4
check_rejects "$b/design_sweep" 1x
check_rejects "$b/design_sweep" --threads lots 7
check_rejects "$b/design_sweep" --search 0 7
check_rejects "$b/io_floorplan" hexamesh -7
check_rejects "$b/io_floorplan" hexamesh 7 notdepth
check_rejects "$b/link_budget" -64
check_rejects "$b/link_budget" 64 c4 1.5
check_rejects "$b/search_arrangement" hexamesh -13
check_rejects "$b/search_arrangement" hexamesh 13 4 --threads -1
check_rejects "$b/search_arrangement" hexamesh 13 4 --tempering 0
check_rejects "$b/search_arrangement" hexamesh 13 4 --seed 1.5
check_rejects "$b/search_arrangement" hexamesh 13 4 --tempering 3 --anneal
check_rejects "$b/search_arrangement" hexamesh 13 4 --exchange 2
check_rejects "$b/search_arrangement" hexamesh 13 4 --fault-kills 2
check_rejects "$b/fault_storm" hexamesh -19
check_rejects "$b/fault_storm" hexamesh 19 --rate 2.0
check_rejects "$b/fault_storm" hexamesh 19 --storm 0
check_rejects "$b/fault_storm" hexamesh 19 --singles 0
check_rejects "$b/hm_server"
check_rejects "$b/hm_server" --port 99999999
check_rejects "$b/hm_server" --unix /tmp/hm_bad.sock --threads lots
check_rejects "$b/hm_client"
check_rejects "$b/hm_client" --port 0 ping
check_rejects "$b/hm_client" --unix /nonexistent/hm.sock ping
check_rejects "$b/hm_client" --unix /tmp/hm_bad.sock evaluate hexamesh 0
check_rejects "$b/hm_cache"
check_rejects "$b/hm_cache" frobnicate somedir
check_rejects "$b/hm_cache" verify /nonexistent/hm_store
# A store that is only read must not be created. Relative paths on
# purpose: a non-root user cannot create /nonexistent/..., so an absolute
# path there would pass even if hm_cache tried.
check_rejects "$b/hm_cache" stats no_such_store
check_rejects "$b/hm_cache" merge merged_dst no_such_store
if [ -e no_such_store ]; then
  echo "FAIL: hm_cache created no_such_store"
  fail=1
fi
check_rejects env HM_THREADS=4x "$b/bench_fig6"
check_rejects env HM_THREADS=abc "$b/bench_fig6"
# The perf drivers rewrite the perf JSON at the end of a run; a bad
# argument must stop them before any of it.
perf="$dir/perf.json"
check_rejects env HM_PERF_JSON="$perf" "$b/bench_perf_micro" --help
check_rejects env HM_PERF_JSON="$perf" "$b/bench_search" --bogus
check_rejects env HM_PERF_JSON="$perf" "$b/bench_sweep_scaling" --help
if [ -e "$perf" ]; then
  echo "FAIL: a perf driver wrote $perf"
  fail=1
fi
exit "$fail"
