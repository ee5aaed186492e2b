#!/bin/sh
# hm_server smoke. A background server must answer ping, evaluate, sweep,
# search and stats through hm_client, give byte-identical replies to
# repeated identical requests (each on its own connection), reject
# malformed and truncated frames without dying, and on shutdown drain,
# exit 0 and unlink its socket. Every file lands in a scratch directory.
#
#   sh tests/e2e/server_smoke.sh path/to/python3 path/to/hm_server \
#       path/to/hm_client
set -eu
python=$1
server=$2
client=$3
# sun_path holds 108 bytes, so the socket goes under a short /tmp path
# whatever TMPDIR is.
dir=$(mktemp -d /tmp/hm_smoke.XXXXXX)
server_pid=
cleanup() {
  if [ -n "$server_pid" ]; then kill "$server_pid" 2>/dev/null || true; fi
  rm -rf "$dir"
}
trap cleanup EXIT
sock="$dir/hm.sock"

"$server" --unix "$sock" --threads 4 --cache-dir "$dir/server_store" &
server_pid=$!
for _ in $(seq 1 100); do
  [ -S "$sock" ] && break
  sleep 0.1
done
test -S "$sock"

"$client" --unix "$sock" ping
"$client" --unix "$sock" evaluate hexamesh 7 --out "$dir/eval_a.bin"
"$client" --unix "$sock" evaluate hexamesh 7 --out "$dir/eval_b.bin"
cmp "$dir/eval_a.bin" "$dir/eval_b.bin"
"$client" --unix "$sock" sweep grid,hexamesh 4,7 --no-sim \
  --out "$dir/sweep_srv_a.csv"
"$client" --unix "$sock" sweep grid,hexamesh 4,7 --no-sim \
  --out "$dir/sweep_srv_b.csv"
cmp "$dir/sweep_srv_a.csv" "$dir/sweep_srv_b.csv"
"$client" --unix "$sock" search hexamesh 6 2
"$client" --unix "$sock" badframe
"$client" --unix "$sock" stats | "$python" -c '
import json, sys
stats = json.load(sys.stdin)
assert stats["requests"] > 0, stats
assert stats["rejects"] == 0, stats
assert stats["store"]["entries"] >= 0, stats
print("server stats:", stats)'

"$client" --unix "$sock" shutdown
# The server's exit status is wait's: anything but 0 fails the script.
wait "$server_pid"
server_pid=
test ! -e "$sock"
echo "server_smoke: hm_server drained, exited 0, socket unlinked"
