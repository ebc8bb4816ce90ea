#!/usr/bin/env bash
# Crash-recovery and chaos smoke for `utilrisk serve` (wired into CI's
# serving-smoke job; also runnable locally).
#
# Phase 1 — graceful determinism: run a seeded closed-loop stream against
#   a journaled server, shut it down cleanly, then recover the journal in
#   a fresh process. The recovery banner digest must be byte-identical to
#   the digest the load generator computed on the client side.
# Phase 2 — crash: kill -9 a journaled server mid-load, restart it, and
#   require a non-empty digest-verified recovery (the server refuses to
#   start on any divergence) that still serves fresh traffic cleanly. The
#   one-shard journal must sit in shard-0000 beside shards.meta.
# Phase 3 — chaos: hostile connections (disconnects, torn writes,
#   malformed frames, slow-loris) against the recovered journal, then a
#   clean probe stream; `loadgen --chaos` exits non-zero if the server
#   crashed, hung, or corrupted its digest.
# Phase 4 — sharded crash: kill -9 a 2-shard journaled server mid-way
#   through a Zipf multi-tenant stream, recover with the same shard
#   count (per-shard journals, merged digest banner), verify a mismatched
#   --shards is refused, and require the recovered server to serve a
#   fresh stream cleanly.
# Phase 5 — advise-auto switches: an --advise-auto server under a
#   mix-shift stream journals its live policy switches ("sw" records).
#   Graceful recovery must replay them into the byte-identical session
#   digest, and a kill -9'd server must still recover and keep serving.
# Phase 6 — SIGTERM at startup: signal the server the instant its socket
#   appears, repeatedly. It must drain ("[draining]") and exit 0 every
#   time, never die on the default signal action.
#
# Env: UTILRISK (binary, default ./build/tools/utilrisk),
#      SMOKE_OUT (artefact dir, default smoke_out).
set -euo pipefail

UTILRISK="${UTILRISK:-./build/tools/utilrisk}"
OUT="${SMOKE_OUT:-smoke_out}"
mkdir -p "$OUT"
SOCK="$OUT/serve.sock"
SERVER=""

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

cleanup() {
  if [ -n "$SERVER" ] && kill -0 "$SERVER" 2>/dev/null; then
    kill -9 "$SERVER" 2>/dev/null || true
  fi
}
trap cleanup EXIT

start_server() { # args: journal_dir log_file [extra serve flags...]
  local journal="$1" log="$2"
  shift 2
  rm -f "$SOCK"
  "$UTILRISK" serve --socket "$SOCK" --journal "$journal" --fsync batch \
    --manifest-dir "" "$@" > "$log" 2>&1 &
  SERVER=$!
  for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && return 0
    # A recovery refusal (divergent digest) exits before binding.
    kill -0 "$SERVER" 2>/dev/null || { cat "$log"; fail "server died on startup"; }
    sleep 0.1
  done
  cat "$log"
  fail "server socket never appeared"
}

stop_server() {
  kill -TERM "$SERVER"
  wait "$SERVER" || fail "server exited non-zero on SIGTERM drain"
  SERVER=""
}

banner_digest() { # arg: log_file -> recovery banner digest
  sed -n 's/.*journalled request(s); digest \([0-9a-f]*\)\].*/\1/p' "$1" | head -1
}

echo "== phase 1: graceful session, then digest-verified recovery =="
J1="$OUT/journal_graceful"
rm -rf "$J1"
start_server "$J1" "$OUT/serve_graceful.txt"
"$UTILRISK" loadgen --socket "$SOCK" --requests 3000 --seed 42 \
  --manifest-dir "" | tee "$OUT/loadgen_graceful.txt"
client_digest=$(awk '/^digest:/ { print $2 }' "$OUT/loadgen_graceful.txt")
[ -n "$client_digest" ] || fail "loadgen printed no digest"
stop_server
start_server "$J1" "$OUT/serve_recovered.txt"
stop_server
cat "$OUT/serve_recovered.txt"
recovered_digest=$(banner_digest "$OUT/serve_recovered.txt")
echo "client digest:    $client_digest"
echo "recovered digest: $recovered_digest"
[ "$recovered_digest" = "$client_digest" ] \
  || fail "recovery digest diverged from the client's"

echo "== phase 2: kill -9 mid-load, recover, keep serving =="
J2="$OUT/journal_crash"
rm -rf "$J2"
start_server "$J2" "$OUT/serve_crash.txt"
"$UTILRISK" loadgen --socket "$SOCK" --requests 200000 --seed 7 \
  --manifest-dir "" > "$OUT/loadgen_crash.txt" 2>&1 &
LOADGEN=$!
sleep 2
kill -9 "$SERVER"
wait "$SERVER" 2>/dev/null || true
SERVER=""
wait "$LOADGEN" 2>/dev/null || true # severed mid-stream; failure expected
echo "journal segments after crash:"
ls -l "$J2"
# One shard journals in the sharded layout too.
[ -f "$J2/shards.meta" ] || fail "shards.meta marker missing"
[ -d "$J2/shard-0000" ] || fail "shard-0000 journal directory missing"
ls -l "$J2/shard-0000"
start_server "$J2" "$OUT/serve_crash_recovered.txt"
replayed=$(sed -n 's/.*\[recovered \([0-9]*\) journalled.*/\1/p' \
  "$OUT/serve_crash_recovered.txt" | head -1)
echo "replayed after kill -9: ${replayed:-none}"
[ -n "$replayed" ] && [ "$replayed" -gt 0 ] \
  || fail "crash recovery replayed nothing"
# The recovered server must still answer a fresh clean stream in full.
"$UTILRISK" loadgen --socket "$SOCK" --requests 500 --seed 11 \
  --manifest-dir "" > "$OUT/loadgen_after_recovery.txt" \
  || fail "recovered server dropped responses"

echo "== phase 3: chaos against the recovered server =="
"$UTILRISK" loadgen --socket "$SOCK" --chaos --seed 1234 \
  --chaos-connections 24 --duration 8 --manifest-dir "" \
  | tee "$OUT/chaos.txt" \
  || fail "chaos probe degraded the server"
stop_server
grep -q "server survived" "$OUT/chaos.txt" || fail "no chaos verdict printed"

echo "== phase 4: 2-shard server, kill -9, merged-digest recovery =="
J4="$OUT/journal_sharded"
rm -rf "$J4"
start_server "$J4" "$OUT/serve_sharded.txt" --shards 2
"$UTILRISK" loadgen --socket "$SOCK" --requests 100000 --seed 9 \
  --workload "zipf:tenants=64,theta=0.9" --connections 2 \
  --manifest-dir "" > "$OUT/loadgen_sharded.txt" 2>&1 &
LOADGEN=$!
sleep 2
kill -9 "$SERVER"
wait "$SERVER" 2>/dev/null || true
SERVER=""
wait "$LOADGEN" 2>/dev/null || true # severed mid-stream; failure expected
echo "per-shard journals after crash:"
ls -l "$J4" "$J4"/shard-* || fail "sharded journal layout missing"
[ -f "$J4/shards.meta" ] || fail "shards.meta marker missing"
# Recovering with a different shard count must refuse — re-routing
# journalled tenants onto other shards would change their state.
if "$UTILRISK" serve --socket "$SOCK" --journal "$J4" --fsync batch \
    --shards 3 --manifest-dir "" > "$OUT/serve_shard_mismatch.txt" 2>&1; then
  fail "server accepted a shard-count mismatch on recovery"
fi
grep -q "shards" "$OUT/serve_shard_mismatch.txt" \
  || fail "mismatch refusal printed no shard diagnostic"
start_server "$J4" "$OUT/serve_sharded_recovered.txt" --shards 2
replayed=$(sed -n 's/.*\[recovered \([0-9]*\) journalled.*/\1/p' \
  "$OUT/serve_sharded_recovered.txt" | head -1)
sharded_digest=$(banner_digest "$OUT/serve_sharded_recovered.txt")
echo "replayed after sharded kill -9: ${replayed:-none} (digest ${sharded_digest:-none})"
[ -n "$replayed" ] && [ "$replayed" -gt 0 ] \
  || fail "sharded crash recovery replayed nothing"
[ -n "$sharded_digest" ] || fail "sharded recovery printed no merged digest"
# The recovered sharded server must still answer a fresh clean stream.
"$UTILRISK" loadgen --socket "$SOCK" --requests 500 --seed 13 \
  --workload "zipf:tenants=64,theta=0.9" --connections 2 \
  --manifest-dir "" > "$OUT/loadgen_sharded_after.txt" \
  || fail "recovered sharded server dropped responses"
stop_server

echo "== phase 5: advise-auto journaled switches, recovery replay =="
J5="$OUT/journal_advise"
rm -rf "$J5"
ADVISE_FLAGS=(--advise-auto --advise-every 16 --advise-window 16)
MIX_FLAGS=(--workload "zipf:tenants=4,theta=0.6"
  --mix-shift "40000:zipf:tenants=4,theta=0.6,mean_runtime=14000,mean_interarrival=120")
start_server "$J5" "$OUT/serve_advise.txt" "${ADVISE_FLAGS[@]}"
"$UTILRISK" loadgen --socket "$SOCK" --requests 2000 --seed 42 \
  "${MIX_FLAGS[@]}" --manifest-dir "" | tee "$OUT/loadgen_advise.txt"
stop_server
advise_digest=$(awk '$1 == "digest:" { print $2 }' "$OUT/serve_advise.txt")
[ -n "$advise_digest" ] || fail "advise-auto session printed no digest"
grep -rh '"type":"sw"' "$J5" > "$OUT/switch_records.txt" || true
switch_count=$(wc -l < "$OUT/switch_records.txt")
echo "journalled switch records: $switch_count"
head -3 "$OUT/switch_records.txt"
[ "$switch_count" -gt 0 ] || fail "advise-auto journalled no switch records"
# Graceful recovery: replaying the journal re-fires the switch logic at
# the same per-key switch points, so the banner digest (switch events
# folded in) must reproduce the session digest byte-for-byte.
start_server "$J5" "$OUT/serve_advise_recovered.txt" "${ADVISE_FLAGS[@]}"
advise_recovered=$(banner_digest "$OUT/serve_advise_recovered.txt")
echo "session digest:   $advise_digest"
echo "recovered digest: $advise_recovered"
[ "$advise_recovered" = "$advise_digest" ] \
  || fail "advise-auto recovery digest diverged (switch replay broken)"
# kill -9 mid-load on the recovered server: the next recovery must still
# replay (switch records included) and serve fresh traffic cleanly.
"$UTILRISK" loadgen --socket "$SOCK" --requests 200000 --seed 7 \
  "${MIX_FLAGS[@]}" --manifest-dir "" > "$OUT/loadgen_advise_crash.txt" 2>&1 &
LOADGEN=$!
sleep 2
kill -9 "$SERVER"
wait "$SERVER" 2>/dev/null || true
SERVER=""
wait "$LOADGEN" 2>/dev/null || true # severed mid-stream; failure expected
start_server "$J5" "$OUT/serve_advise_crash_recovered.txt" "${ADVISE_FLAGS[@]}"
replayed=$(sed -n 's/.*\[recovered \([0-9]*\) journalled.*/\1/p' \
  "$OUT/serve_advise_crash_recovered.txt" | head -1)
echo "replayed after advise-auto kill -9: ${replayed:-none}"
[ -n "$replayed" ] && [ "$replayed" -gt 0 ] \
  || fail "advise-auto crash recovery replayed nothing"
"$UTILRISK" loadgen --socket "$SOCK" --requests 500 --seed 11 \
  "${MIX_FLAGS[@]}" --manifest-dir "" > "$OUT/loadgen_advise_after.txt" \
  || fail "recovered advise-auto server dropped responses"
stop_server

echo "== phase 6: SIGTERM the moment the socket appears =="
for round in $(seq 1 20); do
  rm -f "$SOCK"
  log="$OUT/serve_sigterm_startup.txt"
  "$UTILRISK" serve --socket "$SOCK" --manifest-dir "" > "$log" 2>&1 &
  SERVER=$!
  # Busy-wait (no sleep) so the signal lands as close to bind as we can.
  until [ -S "$SOCK" ]; do
    kill -0 "$SERVER" 2>/dev/null || { cat "$log"; fail "server died on startup"; }
  done
  kill -TERM "$SERVER"
  status=0
  wait "$SERVER" || status=$?
  SERVER=""
  [ "$status" -eq 0 ] || { cat "$log"; fail "round $round: exit $status on early SIGTERM"; }
  grep -q '^\[draining\]' "$log" || { cat "$log"; fail "round $round: no [draining]"; }
done
echo "early SIGTERM drained cleanly in ${round} round(s)"

echo "crash-recovery smoke: all phases passed"
