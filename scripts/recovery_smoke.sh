#!/usr/bin/env bash
# End-to-end crash-recovery smoke: ingest acked batches into rsserve with a
# WAL, checkpoint mid-stream, ingest more, SIGKILL the process, restart on
# the same -wal-dir/-checkpoint, and assert every acked count is inside the
# recovered certified interval. Exercises the full durability pipeline —
# checkpoint restore plus WAL tail replay — from outside the process.
# Writes go through /v2/ingest and reads through /v2/query; /v1/status and
# /v1/checkpoint have no v2 form.
#
# Requires: go, curl, python3 (JSON assertions). Run from anywhere.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

WORK="$(mktemp -d)"
PID=""
cleanup() {
  [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

ADDR="127.0.0.1:${RSSERVE_SMOKE_PORT:-18080}"
BASE="http://$ADDR"

echo "== build rsserve"
go build -o "$WORK/rsserve" ./cmd/rsserve

start_server() {
  "$WORK/rsserve" -listen "$ADDR" -mem $((1 << 20)) \
    -checkpoint "$WORK/ckpt.bin" \
    -wal-dir "$WORK/wal" -wal-fsync batch \
    >>"$WORK/server.log" 2>&1 &
  PID=$!
  for _ in $(seq 1 50); do
    if curl -fsS "$BASE/v1/status" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.2
  done
  echo "rsserve did not come up; log follows" >&2
  cat "$WORK/server.log" >&2
  exit 1
}

# ingest KEY COUNT — one acked batch of COUNT increments of KEY. Fails
# unless the server acked every item: the recovery assertion below is only
# meaningful for writes the client was told are durable.
ingest() {
  local key=$1 n=$2 body resp
  body=$(python3 -c 'import json,sys
k, n = int(sys.argv[1]), int(sys.argv[2])
print(json.dumps({"items": [{"key": k, "value": 1}] * n}))' "$key" "$n")
  resp=$(curl -fsS -X POST --data "$body" "$BASE/v2/ingest")
  python3 -c 'import json,sys
r = json.loads(sys.argv[1])
n = int(sys.argv[2])
assert r["accepted"] == n and r["dropped"] == 0, f"ack {r} for batch of {n}"' "$resp" "$n"
}

# assert_contains KEY TRUTH — the certified interval [lower, upper] that a
# /v2/query point batch returns for KEY must contain TRUTH.
assert_contains() {
  local key=$1 truth=$2 resp
  resp=$(curl -fsS -X POST --data "{\"kind\":\"point\",\"keys\":[$key]}" "$BASE/v2/query")
  python3 -c 'import json,sys
r = json.loads(sys.argv[1])
truth = int(sys.argv[2])
assert r["certified"], f"uncertified answer: {r}"
(e,) = r["per_key"]
key, lo, hi = e["key"], e["lower"], e["upper"]
assert lo <= truth <= hi, f"key {key}: certified [{lo}, {hi}] misses acked truth {truth}"
print(f"key {key}: truth {truth} in certified [{lo}, {hi}]")' "$resp" "$truth"
}

echo "== start with empty WAL"
start_server

echo "== ingest 400x key 101, checkpoint, ingest 300x key 202 + 150x key 101"
ingest 101 400
curl -fsS -X POST "$BASE/v1/checkpoint" >/dev/null
ingest 202 300
ingest 101 150 # tail past the checkpoint cut for a key the snapshot holds

echo "== SIGKILL pid $PID"
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""

echo "== restart on the same -wal-dir and -checkpoint"
start_server

assert_contains 101 550
assert_contains 202 300

echo "== WAL status after recovery"
curl -fsS "$BASE/v1/status" | python3 -c 'import json,sys
w = json.load(sys.stdin)["backend"].get("wal")
assert w, "no wal section in /v1/status"
assert w["last_lsn"] > 0, f"wal stats: {w}"
print("wal:", " ".join(f"{k}={w[k]}" for k in ("last_lsn", "watermark", "replayed_records", "torn_tail_truncations")))'

echo "== /metrics exposition after recovery"
# The Prometheus plane must tell the same recovery story the JSON status
# does: the restarted process replayed the WAL tail past the checkpoint cut
# (300x key 202 + 150x key 101 = 2 records), and the wal_* families are
# present alongside the queryd_* and ingest_* ones.
curl -fsS "$BASE/metrics" | python3 -c 'import sys
series = {}
for line in sys.stdin:
    line = line.strip()
    if not line or line.startswith("#"):
        continue
    name, _, value = line.rpartition(" ")
    series[name] = value
for required in (
    "wal_replayed_records_total",
    "wal_appended_records_total",
    "wal_segments",
    "queryd_cache_misses_total",
    "ingest_accepted_items_total",
):
    assert required in series, f"/metrics missing {required}"
replayed = int(series["wal_replayed_records_total"])
assert replayed == 2, f"wal_replayed_records_total {replayed}, want 2 (the post-checkpoint tail)"
print("metrics:", " ".join(f"{k}={series[k]}" for k in ("wal_replayed_records_total", "wal_appended_records_total", "wal_segments")))'

echo "recovery smoke: OK"
