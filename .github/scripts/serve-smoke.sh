#!/usr/bin/env bash
# End-to-end smoke test of the study service with a persistent store:
#   0. `serve -store http://…` is refused: a store is a directory
#   1. start `nvmexplorer serve -store`, poll /v1/healthz until ready
#   2. POST a sync study (capturing its ETag) and revalidate via 304
#   3. POST the same study async, poll the job to completion, and check
#      its result matches the sync bytes
#   4. SIGTERM the server (graceful drain), restart it on the same store
#   5. assert the warm response is byte-identical to the cold one and to
#      the batch CLI, served entirely from the store (zero characterizations);
#      the removed /v1/store/* record routes answer the 404 envelope
#   5b. exercise the read side: GET /v1/studies lists the stored study,
#      GET /v1/studies/{fp} replays the cold bytes, /v1/query answers top-k
#      and frontier queries (406 on an unproducible Accept), and the
#      `nvmexplorer query` CLI matches /v1/query byte for byte — all with
#      zero engine work
#   6. submit a fresh async job and kill -9 the server mid-flight; assert
#      the job journal survived, the restarted server resumes the job under
#      the same ID, and its result is byte-identical to the batch CLI
#   7. run `nvmexplorer fsck` over the store: clean scan passes, a corrupted
#      point file fails the scan, -repair quarantines it, and the re-scan
#      is clean again
#   8. distributed fabric: two worker processes + one coordinator
#      (-fabric), kill -9 one worker mid-study; the coordinator recomputes
#      the lost shard locally and the bytes still match the batch CLI. A
#      coordinator restart on the same store then replays the study warm
#      with zero re-characterizations.
set -euo pipefail

PORT="${PORT:-8731}"
BASE="http://127.0.0.1:$PORT"
WORK="$(mktemp -d)"
STORE="$WORK/store"
SERVER_PID=""
W1_PID=""
W2_PID=""
# On any exit: stop the servers, wait for them, remove the work directory,
# and exit with the script's own status.
cleanup() {
  local status=$?
  for pid in "$SERVER_PID" "$W1_PID" "$W2_PID"; do
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  done
  for pid in "$SERVER_PID" "$W1_PID" "$W2_PID"; do
    [ -n "$pid" ] && wait "$pid" 2>/dev/null || true
  done
  rm -rf "$WORK"
  exit "$status"
}
trap cleanup EXIT

go build -o "$WORK/nvmexplorer" ./cmd/nvmexplorer

cat > "$WORK/study.json" <<'JSON'
{
  "name": "ci_smoke",
  "cells": [{"technology": "STT", "flavor": "Opt"},
            {"technology": "RRAM", "flavor": "Pess"},
            {"technology": "SRAM", "flavor": "Ref"}],
  "capacities_bytes": [1048576, 4194304],
  "opt_targets": ["ReadEDP", "Area"],
  "traffic": {"generic": {"read_gbs_lo": 1, "read_gbs_hi": 10,
               "write_gbs_lo": 0.01, "write_gbs_hi": 0.1, "points": 2}}
}
JSON

wait_healthy() {
  local base="${1:-$BASE}"
  for _ in $(seq 1 50); do
    if curl -fsS "$base/v1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "server at $base never became healthy" >&2
  return 1
}

echo "== a URL store target is refused"
if timeout 10 "$WORK/nvmexplorer" serve -addr "127.0.0.1:$PORT" \
     -store http://127.0.0.1:1 2> "$WORK/url-store.err"; then
  echo "serve -store http://… started" >&2
  exit 1
fi
if ! grep -q "remote stores were removed" "$WORK/url-store.err"; then
  echo "serve -store http://… failed without the removal error:" >&2
  cat "$WORK/url-store.err" >&2
  exit 1
fi

echo "== start server on a cold store"
"$WORK/nvmexplorer" serve -addr "127.0.0.1:$PORT" -store "$STORE" &
SERVER_PID=$!
wait_healthy

echo "== sync study (cold)"
curl -fsS -X POST --data-binary @"$WORK/study.json" \
  -D "$WORK/cold.headers" -o "$WORK/cold.json" "$BASE/v1/studies?format=json"
ETAG=$(awk 'tolower($1)=="etag:" {print $2}' "$WORK/cold.headers" | tr -d '\r')
if [ -z "$ETAG" ]; then
  echo "no ETag on the study response" >&2
  exit 1
fi

echo "== ETag revalidation answers 304"
CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
  --data-binary @"$WORK/study.json" -H "If-None-Match: $ETAG" \
  "$BASE/v1/studies?format=json")
if [ "$CODE" != "304" ]; then
  echo "revalidation returned $CODE, want 304" >&2
  exit 1
fi

echo "== async job to completion"
JOB=$(curl -fsS -X POST --data-binary @"$WORK/study.json" \
  "$BASE/v1/studies?async=1&format=json" | jq -r .job_id)
if [ -z "$JOB" ] || [ "$JOB" = "null" ]; then
  echo "async submission returned no job id" >&2
  exit 1
fi
STATE=queued
for _ in $(seq 1 100); do
  STATE=$(curl -fsS "$BASE/v1/jobs/$JOB" | jq -r .state)
  case "$STATE" in
    done) break ;;
    failed|canceled) echo "job ended $STATE" >&2; exit 1 ;;
  esac
  sleep 0.2
done
if [ "$STATE" != "done" ]; then
  echo "job stuck in state $STATE" >&2
  exit 1
fi
curl -fsS "$BASE/v1/jobs/$JOB/result?format=json" -o "$WORK/job.json"
cmp "$WORK/cold.json" "$WORK/job.json"

echo "== graceful restart on the same store"
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
SERVER_PID=""

"$WORK/nvmexplorer" serve -addr "127.0.0.1:$PORT" -store "$STORE" &
SERVER_PID=$!
wait_healthy

echo "== warm study: byte-identical, zero characterizations"
curl -fsS -X POST --data-binary @"$WORK/study.json" \
  -o "$WORK/warm.json" "$BASE/v1/studies?format=json"
cmp "$WORK/cold.json" "$WORK/warm.json"
STATS=$(curl -fsS "$BASE/v1/stats")
echo "$STATS" | jq -e '.store.enabled and .store.hits > 0 and .store.misses == 0' >/dev/null || {
  echo "warm run was not served from the store: $STATS" >&2
  exit 1
}
echo "$STATS" | jq -e '.memo_cache.misses == 0' >/dev/null || {
  echo "warm run re-characterized: $STATS" >&2
  exit 1
}

echo "== warm response matches the batch CLI"
"$WORK/nvmexplorer" run "$WORK/study.json" -format json > "$WORK/cli.json"
cmp "$WORK/warm.json" "$WORK/cli.json"

echo "== no store record routes: /v1/store/* answers the 404 envelope"
CODE=$(curl -s -o "$WORK/store-route.json" -w '%{http_code}' \
  "$BASE/v1/store/points/$(printf 'ab%.0s' $(seq 1 32))")
if [ "$CODE" != "404" ] || ! jq -e '.error.code == "not_found"' "$WORK/store-route.json" >/dev/null; then
  echo "GET /v1/store/points answered $CODE: $(cat "$WORK/store-route.json")" >&2
  exit 1
fi

echo "== read side: stored study replay + /v1/query, zero engine work"
FP=$(curl -fsS "$BASE/v1/studies" | jq -r '.[] | select(.name=="ci_smoke") | .fingerprint')
if [ -z "$FP" ] || [ "$FP" = "null" ]; then
  echo "stored study ci_smoke not listed" >&2
  exit 1
fi
curl -fsS "$BASE/v1/studies/$FP?format=json" -o "$WORK/replay.json"
cmp "$WORK/cold.json" "$WORK/replay.json"
ROWS=$(curl -fsS "$BASE/v1/query?sort=total_power_mw&top=3&format=json" | jq '.points | length')
if [ "$ROWS" != "3" ]; then
  echo "top-3 query returned $ROWS rows" >&2
  exit 1
fi
curl -fsS "$BASE/v1/query?frontier=total_power_mw,mem_time_per_sec&format=json" \
  | jq -e '.frontier.points | length > 0' >/dev/null || {
  echo "frontier query produced no frontier block" >&2
  exit 1
}
CODE=$(curl -s -o /dev/null -w '%{http_code}' -H 'Accept: text/plain' "$BASE/v1/query")
if [ "$CODE" != "406" ]; then
  echo "unproducible Accept returned $CODE, want 406" >&2
  exit 1
fi
echo "== CLI query matches /v1/query byte for byte"
curl -fsS "$BASE/v1/query?sort=read_latency_ns&top=2&format=json" -o "$WORK/query_srv.json"
"$WORK/nvmexplorer" query "$STORE" -sort read_latency_ns -top 2 -format json > "$WORK/query_cli.json"
cmp "$WORK/query_srv.json" "$WORK/query_cli.json"
curl -fsS "$BASE/v1/stats" | jq -e '.memo_cache.misses == 0 and .query.enabled and .query.queries > 0' >/dev/null || {
  echo "read side touched the engine (or query index inactive)" >&2
  exit 1
}

echo "== adaptive exploration: budgeted POST, deterministic re-run, CLI parity"
cat > "$WORK/adaptive.json" <<'JSON'
{
  "name": "ci_adaptive",
  "cells": [{"technology": "STT", "flavor": "Opt"},
            {"technology": "FeFET", "flavor": "Opt"}],
  "capacities_bytes": [65536, 131072, 262144, 524288, 1048576,
                       2097152, 4194304, 8388608, 16777216, 33554432],
  "traffic": {"fixed": [{"name": "p", "reads_per_sec": 1e6, "writes_per_sec": 1e5}]},
  "pareto": {"metrics": ["read_latency_ns", "read_energy_pj"]}
}
JSON
curl -fsS -X POST --data-binary @"$WORK/adaptive.json" \
  -o "$WORK/adaptive1.json" "$BASE/v1/studies?format=json&mode=adaptive&budget=12&seed=7"
jq -e '.exploration.mode == "adaptive"
       and .exploration.evaluated_points <= 12
       and .exploration.evaluated_points < .exploration.exhaustive_points' \
  "$WORK/adaptive1.json" >/dev/null || {
  echo "adaptive response carries no sane exploration block" >&2
  exit 1
}
curl -fsS -X POST --data-binary @"$WORK/adaptive.json" \
  -o "$WORK/adaptive2.json" "$BASE/v1/studies?format=json&mode=adaptive&budget=12&seed=7"
cmp "$WORK/adaptive1.json" "$WORK/adaptive2.json"
"$WORK/nvmexplorer" run "$WORK/adaptive.json" -format json \
  -mode adaptive -budget 12 -seed 7 > "$WORK/adaptive_cli.json"
cmp "$WORK/adaptive1.json" "$WORK/adaptive_cli.json"
curl -fsS "$BASE/v1/stats" | jq -e '.exploration.adaptive_studies >= 1
       and .exploration.adaptive_points_evaluated > 0' >/dev/null || {
  echo "stats carry no adaptive exploration counters" >&2
  exit 1
}

echo "== crash recovery: kill -9 mid-job, the journal resumes it"
# The analytical model finishes a 12-point study in ~10ms — far too fast to
# kill mid-flight from a shell. Restart the server with the NVMX_POINT_DELAY
# test seam so each grid point takes 250ms and the job is provably in
# progress when SIGKILL lands.
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
SERVER_PID=""
env NVMX_POINT_DELAY=250ms \
  "$WORK/nvmexplorer" serve -addr "127.0.0.1:$PORT" -store "$STORE" &
SERVER_PID=$!
wait_healthy
cat > "$WORK/crash.json" <<'JSON'
{
  "name": "ci_crash",
  "cells": [{"technology": "STT", "flavor": "Opt"},
            {"technology": "FeFET", "flavor": "Opt"},
            {"technology": "PCM", "flavor": "Opt"},
            {"technology": "RRAM", "flavor": "Opt"}],
  "capacities_bytes": [8388608, 16777216, 33554432],
  "opt_targets": ["ReadEDP", "Area"],
  "traffic": {"generic": {"read_gbs_lo": 1, "read_gbs_hi": 10,
               "write_gbs_lo": 0.01, "write_gbs_hi": 0.1, "points": 2}}
}
JSON
JOB2=$(curl -fsS -X POST --data-binary @"$WORK/crash.json" \
  "$BASE/v1/studies?async=1&format=json" | jq -r .job_id)
if [ -z "$JOB2" ] || [ "$JOB2" = "null" ]; then
  echo "crash-study submission returned no job id" >&2
  exit 1
fi
sleep 0.6 # let a couple of points complete and land in the store before the crash
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
if ! ls "$STORE/jobs/"*.job >/dev/null 2>&1; then
  echo "no job journal survived the kill -9" >&2
  exit 1
fi

"$WORK/nvmexplorer" serve -addr "127.0.0.1:$PORT" -store "$STORE" &
SERVER_PID=$!
wait_healthy
STATE=queued
for _ in $(seq 1 300); do
  STATE=$(curl -fsS "$BASE/v1/jobs/$JOB2" | jq -r .state)
  case "$STATE" in
    done) break ;;
    failed|canceled) echo "resumed job ended $STATE" >&2; exit 1 ;;
  esac
  sleep 0.2
done
if [ "$STATE" != "done" ]; then
  echo "resumed job stuck in state $STATE" >&2
  exit 1
fi
curl -fsS "$BASE/v1/stats" | jq -e '.async.resumed == 1' >/dev/null || {
  echo "server did not report a resumed job" >&2
  exit 1
}
curl -fsS "$BASE/v1/jobs/$JOB2/result?format=json" -o "$WORK/crash_resumed.json"
"$WORK/nvmexplorer" run "$WORK/crash.json" -format json > "$WORK/crash_cli.json"
cmp "$WORK/crash_resumed.json" "$WORK/crash_cli.json"

kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
SERVER_PID=""

echo "== fsck: clean scan, corruption detection, repair"
"$WORK/nvmexplorer" fsck "$STORE"
POINT=$(ls "$STORE"/points/*/*.gob | head -1)
echo "bitrot" > "$POINT"
if "$WORK/nvmexplorer" fsck "$STORE" >/dev/null 2>&1; then
  echo "fsck passed a corrupted store" >&2
  exit 1
fi
"$WORK/nvmexplorer" fsck -repair "$STORE"
"$WORK/nvmexplorer" fsck "$STORE"
if ! ls "$STORE/.corrupt/"* >/dev/null 2>&1; then
  echo "repair did not quarantine the corrupted point" >&2
  exit 1
fi

echo "== fabric: two workers + a coordinator, kill -9 one worker mid-study"
W1_PORT=$((PORT + 1)); W1_BASE="http://127.0.0.1:$W1_PORT"
W2_PORT=$((PORT + 2)); W2_BASE="http://127.0.0.1:$W2_PORT"
FABRIC_STORE="$WORK/fabric-store"
# Worker 1 stretches each point to 100ms (NVMX_POINT_DELAY test seam) so a
# shell-driven kill provably lands while its shard is in flight.
env NVMX_POINT_DELAY=100ms \
  "$WORK/nvmexplorer" serve -addr "127.0.0.1:$W1_PORT" &
W1_PID=$!
"$WORK/nvmexplorer" serve -addr "127.0.0.1:$W2_PORT" &
W2_PID=$!
"$WORK/nvmexplorer" serve -addr "127.0.0.1:$PORT" -store "$FABRIC_STORE" \
  -fabric "$W1_BASE,$W2_BASE" &
SERVER_PID=$!
wait_healthy "$W1_BASE"
wait_healthy "$W2_BASE"
wait_healthy

echo "== fabric protocol handshake"
curl -fsS "$BASE/v1/version" | jq -e '.protocol == "v1"
       and .point_key_version != "" and .shard_wire_version != ""' >/dev/null || {
  echo "/v1/version carries no protocol handshake" >&2
  exit 1
}

cat > "$WORK/fabric.json" <<'JSON'
{
  "name": "ci_fabric",
  "cells": [{"technology": "STT", "flavor": "Opt"},
            {"technology": "FeFET", "flavor": "Opt"},
            {"technology": "PCM", "flavor": "Opt"},
            {"technology": "RRAM", "flavor": "Opt"}],
  "capacities_bytes": [8388608, 16777216, 33554432],
  "opt_targets": ["ReadEDP", "Area"],
  "traffic": {"generic": {"read_gbs_lo": 1, "read_gbs_hi": 10,
               "write_gbs_lo": 0.01, "write_gbs_hi": 0.1, "points": 2}}
}
JSON
curl -fsS -X POST --data-binary @"$WORK/fabric.json" \
  -o "$WORK/fabric_cold.json" "$BASE/v1/studies?format=json" &
CURL_PID=$!
sleep 0.5 # let the fan-out reach worker 1, then kill it mid-shard
kill -9 "$W1_PID"
wait "$W1_PID" 2>/dev/null || true
W1_PID=""
wait "$CURL_PID"

echo "== fabric bytes match the batch CLI despite the lost worker"
"$WORK/nvmexplorer" run "$WORK/fabric.json" -format json > "$WORK/fabric_cli.json"
cmp "$WORK/fabric_cold.json" "$WORK/fabric_cli.json"
STATS=$(curl -fsS "$BASE/v1/stats")
echo "$STATS" | jq -e '.schema_version == "v3"
       and .fabric.enabled and .fabric.workers == 2
       and .fabric.shards > 0 and .fabric.remote_hits > 0' >/dev/null || {
  echo "coordinator stats carry no fabric activity: $STATS" >&2
  exit 1
}
# The killed worker's shard either re-hashed onto the survivor (resharded)
# or fell back to coordinator-local compute (remote_misses) — and its
# breaker tripped either way.
echo "$STATS" | jq -e '.fabric.breaker_trips > 0
       and ((.fabric.resharded > 0) or (.fabric.remote_misses > 0))' >/dev/null || {
  echo "killed worker neither resharded nor fell back locally: $STATS" >&2
  exit 1
}
echo "$STATS" | jq -e '.store.backend == "local" and .store.target != ""' >/dev/null || {
  echo "stats carry no store backend/target: $STATS" >&2
  exit 1
}

echo "== coordinator restart: warm fabric study, zero re-characterizations"
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
SERVER_PID=""
"$WORK/nvmexplorer" serve -addr "127.0.0.1:$PORT" -store "$FABRIC_STORE" \
  -fabric "$W1_BASE,$W2_BASE" &
SERVER_PID=$!
wait_healthy
curl -fsS -X POST --data-binary @"$WORK/fabric.json" \
  -o "$WORK/fabric_warm.json" "$BASE/v1/studies?format=json"
cmp "$WORK/fabric_cold.json" "$WORK/fabric_warm.json"
curl -fsS "$BASE/v1/stats" | jq -e '.memo_cache.misses == 0
       and .store.hits > 0 and .store.misses == 0
       and .fabric.shards == 0' >/dev/null || {
  echo "warm fabric run re-characterized or fanned out" >&2
  exit 1
}

kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
SERVER_PID=""
kill -TERM "$W2_PID"
wait "$W2_PID" 2>/dev/null || true
W2_PID=""

echo "== resilience fabric: reshard on worker loss, revival via -rehandshake"
RES_STORE="$WORK/resil-store"
W1_STORE="$WORK/w1-store"
W2_STORE="$WORK/w2-store"
# Workers run with their own persistent stores this time; a shard touches
# neither. Worker 1 stretches each point to 100ms so the kill provably
# lands while its shard is in flight.
env NVMX_POINT_DELAY=100ms \
  "$WORK/nvmexplorer" serve -addr "127.0.0.1:$W1_PORT" -store "$W1_STORE" &
W1_PID=$!
"$WORK/nvmexplorer" serve -addr "127.0.0.1:$W2_PORT" -store "$W2_STORE" &
W2_PID=$!
"$WORK/nvmexplorer" serve -addr "127.0.0.1:$PORT" -store "$RES_STORE" \
  -fabric "$W1_BASE,$W2_BASE" \
  -rehandshake 200ms \
  -breaker-backoff 50ms -breaker-max-backoff 500ms &
SERVER_PID=$!
wait_healthy "$W1_BASE"
wait_healthy "$W2_BASE"
wait_healthy

sed 's/ci_fabric/ci_resil/' "$WORK/fabric.json" > "$WORK/resil.json"
curl -fsS -X POST --data-binary @"$WORK/resil.json" \
  -o "$WORK/resil_cold.json" "$BASE/v1/studies?format=json" &
CURL_PID=$!
sleep 0.5 # let the fan-out reach worker 1, then kill it mid-shard
kill -9 "$W1_PID"
wait "$W1_PID" 2>/dev/null || true
W1_PID=""
wait "$CURL_PID"

echo "== lost shard resharded onto the survivor, bytes still match the CLI"
"$WORK/nvmexplorer" run "$WORK/resil.json" -format json > "$WORK/resil_cli.json"
cmp "$WORK/resil_cold.json" "$WORK/resil_cli.json"
STATS=$(curl -fsS "$BASE/v1/stats")
echo "$STATS" | jq -e '.fabric.breaker_trips > 0 and .fabric.shard_retries > 0
       and .fabric.resharded > 0' >/dev/null || {
  echo "killed worker's shard was not resharded: $STATS" >&2
  exit 1
}

echo "== revived worker rejoins the ring via the -rehandshake ticker"
"$WORK/nvmexplorer" serve -addr "127.0.0.1:$W1_PORT" -store "$W1_STORE" &
W1_PID=$!
wait_healthy "$W1_BASE"
LIVE=0
for _ in $(seq 1 100); do
  LIVE=$(curl -fsS "$BASE/v1/stats" | jq -r .fabric.live)
  [ "$LIVE" = "2" ] && break
  sleep 0.2
done
if [ "$LIVE" != "2" ]; then
  echo "revived worker never rejoined the ring (live=$LIVE)" >&2
  exit 1
fi

echo "== the coordinator's store is fsck-clean after the worker loss"
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
SERVER_PID=""
"$WORK/nvmexplorer" fsck "$RES_STORE"

kill -TERM "$W1_PID"
wait "$W1_PID" 2>/dev/null || true
W1_PID=""
kill -TERM "$W2_PID"
wait "$W2_PID" 2>/dev/null || true
W2_PID=""
echo "serve smoke OK"
