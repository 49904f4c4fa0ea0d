#!/bin/sh
# Daemon smoke test: start `oodbsub serve` on an ephemeral port, run a
# scripted client session (LOAD / CHECK / STATE / VIEW / UNDEFINE /
# OPTIMIZE / CLASSIFY / STATS / SHUTDOWN) through `oodbsub rpc`, repeat
# the core verbs over the binary framing (`rpc --binary`, including the
# batched BCHECK), and assert the server drains and exits cleanly. This
# is the CI server-smoke job.
#
# usage: server_smoke.sh <path-to-oodbsub> <examples-data-dir>
set -e
BIN="$1"
DATA="$2"
TMP="${TMPDIR:-/tmp}/oodbsub_server_smoke.$$"
mkdir -p "$TMP"
# The background job opens serve.out only after it forks; create it
# here, so that the port scrape below never reads a missing file.
: >"$TMP/serve.out"

"$BIN" serve --port=0 --threads=2 --max-pending=32 \
  >"$TMP/serve.out" 2>"$TMP/serve.err" &
SRV=$!
cleanup() {
  kill "$SRV" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

# Scrape the ephemeral port from the daemon's one stdout line.
PORT=
i=0
while [ $i -lt 100 ]; do
  PORT=$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9][0-9]*\)$/\1/p' \
         "$TMP/serve.out")
  [ -n "$PORT" ] && break
  i=$((i+1))
  sleep 0.1
done
[ -n "$PORT" ] || { echo "FAIL: server did not report a port"; exit 1; }
T="127.0.0.1:$PORT"
echo "daemon on $T"

"$BIN" rpc "$T" PING                          | grep -q '^pong$'
"$BIN" rpc "$T" LOAD med "$DATA/medical.dl"   | grep -q 'session=med'
"$BIN" rpc "$T" CHECK med QueryPatient ViewPatient | grep -q 'subsumed=true'
"$BIN" rpc "$T" CHECK med ViewPatient QueryPatient | grep -q 'subsumed=false'
"$BIN" rpc "$T" STATE med "$DATA/hospital.odb"     | grep -q 'state loaded'
"$BIN" rpc "$T" VIEW med ViewPatient          | grep -q 'extent='
"$BIN" rpc "$T" OPTIMIZE med QueryPatient     | grep -q 'plan='
"$BIN" rpc "$T" CLASSIFY med                  | grep -q 'parents:'
"$BIN" rpc "$T" UNDEFINE med ViewPatient      | grep -q 'taxonomy_removed=true'
"$BIN" rpc "$T" CLASSIFY med                  | { ! grep -q 'ViewPatient'; }
"$BIN" rpc "$T" VIEW med ViewPatient          | grep -q 'extent='
"$BIN" rpc "$T" CLASSIFY med                  | grep -q 'ViewPatient'
"$BIN" rpc "$T" STATS med                     | grep -q 'engine_runs='
"$BIN" rpc "$T" STATS med                     | grep -q 'classify_removes=1'

# Batched CHECK over the text protocol, then the same session over the
# binary framing: verdicts must be byte-identical across framings.
"$BIN" rpc "$T" BCHECK med QueryPatient ViewPatient ViewPatient QueryPatient \
  | grep -q '^subsumed=true,false$'
"$BIN" rpc --binary "$T" PING                 | grep -q '^pong$'
"$BIN" rpc --binary "$T" CHECK med QueryPatient ViewPatient \
  | grep -q '^subsumed=true$'
"$BIN" rpc --binary "$T" BCHECK med QueryPatient ViewPatient ViewPatient QueryPatient \
  | grep -q '^subsumed=true,false$'
"$BIN" rpc --binary "$T" STATS med            | grep -q 'engine_runs='

"$BIN" rpc "$T" SHUTDOWN                      | grep -q 'draining'

# The daemon must exit 0 on its own after the drain.
wait "$SRV"
echo "smoke ok: daemon drained and exited cleanly"
