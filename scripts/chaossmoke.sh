#!/bin/sh
# Chaos smoke test for the analysis daemon: drive the real cmd/server
# binary through the two failure modes the store layer is built to survive,
# and assert it degrades honestly instead of dying or lying.
#
#   Phase A — crash recovery: run, kill, tear a stored entry the way a
#   crash between write and fsync does, restart. The daemon must come
#   back, quarantine the torn entry, and recompute rather than serve it.
#
#   Phase B — store outage: arm a fault plan that fails every store
#   operation. /healthz must say the store is degraded, and a resubmission
#   must still be answered warm (zero solver runs) from the memory
#   fallback.
set -eu

GO=${GO:-go}
BENCH=${BENCH:-md5}
PORT=${PORT:-18081}
WORK=$(mktemp -d)
SRV=""

cleanup() {
    [ -n "$SRV" ] && kill "$SRV" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

REQ="{\"bench\":\"$BENCH\",\"version\":\"pthreads\",\"options\":{\"verify\":true}}"
URL="http://127.0.0.1:$PORT"

wait_healthy() {
    i=0
    until curl -sf "$URL/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 50 ]; then
            echo "chaossmoke: daemon never became healthy" >&2
            exit 1
        fi
        sleep 0.2
    done
}

stop_server() {
    kill "$SRV" 2>/dev/null || true
    wait "$SRV" 2>/dev/null || true
    SRV=""
}

"$GO" build -o "$WORK/server" ./cmd/server

# ---- Phase A: torn write + restart ---------------------------------------

"$WORK/server" -addr "127.0.0.1:$PORT" -store disk -store-dir "$WORK/store" &
SRV=$!
wait_healthy

cold=$(curl -sf -X POST "$URL/analyze" -d "$REQ")
echo "$cold" | jq -e '.store.status == "miss" and .diagnostics.solver_runs > 0' >/dev/null || {
    echo "chaossmoke: phase A cold run did not compute:" >&2
    echo "$cold" | jq '.store, .diagnostics' >&2
    exit 1
}
stop_server

# Tear the result entry: keep the first half of its bytes, exactly what a
# kill between write and fsync can leave on disk.
entry=$(ls "$WORK/store"/res-*.json | head -1)
size=$(wc -c < "$entry")
dd if="$entry" of="$entry.torn" bs=1 count=$((size / 2)) 2>/dev/null
mv "$entry.torn" "$entry"

"$WORK/server" -addr "127.0.0.1:$PORT" -store disk -store-dir "$WORK/store" &
SRV=$!
wait_healthy

curl -sf "$URL/stats" | jq -e '.store_quarantined >= 1' >/dev/null || {
    echo "chaossmoke: restart did not quarantine the torn entry:" >&2
    curl -sf "$URL/stats" | jq . >&2
    exit 1
}
recomputed=$(curl -sf -X POST "$URL/analyze" -d "$REQ")
echo "$recomputed" | jq -e '.store.status != "hit" and .diagnostics.solver_runs > 0' >/dev/null || {
    echo "chaossmoke: torn entry was served instead of recomputed:" >&2
    echo "$recomputed" | jq '.store, .diagnostics' >&2
    exit 1
}
# The answer must match the pre-crash run (diagnostics are cost, not answer).
if [ "$(echo "$cold" | jq -cS '.report | del(.diagnostics)')" != \
     "$(echo "$recomputed" | jq -cS '.report | del(.diagnostics)')" ]; then
    echo "chaossmoke: post-restart answer differs from the pre-crash run" >&2
    exit 1
fi
stop_server
echo "chaossmoke: phase A ok (torn entry quarantined, answer recomputed)"

# ---- Phase B: store outage -> fallback serving ---------------------------

cat > "$WORK/plan.json" <<'EOF'
{
  "name": "smoke-outage",
  "rules": [
    {"op": "store.get", "every": 1, "action": "error", "msg": "backend down"},
    {"op": "store.put", "every": 1, "action": "error", "msg": "backend down"}
  ]
}
EOF

"$WORK/server" -addr "127.0.0.1:$PORT" -store disk -store-dir "$WORK/store-b" \
    -fault-plan "$WORK/plan.json" &
SRV=$!
wait_healthy

first=$(curl -sf -X POST "$URL/analyze" -d "$REQ")
echo "$first" | jq -e '.diagnostics.solver_runs > 0' >/dev/null || {
    echo "chaossmoke: phase B first run did not compute:" >&2
    echo "$first" | jq '.diagnostics' >&2
    exit 1
}
second=$(curl -sf -X POST "$URL/analyze" -d "$REQ")
echo "$second" | jq -e '.store.status == "hit" and .diagnostics.solver_runs == 0' >/dev/null || {
    echo "chaossmoke: outage resubmission not served warm from the fallback:" >&2
    echo "$second" | jq '.store, .diagnostics' >&2
    exit 1
}
curl -sf "$URL/healthz" | jq -e '.status == "degraded" and .store_degraded == true' >/dev/null || {
    echo "chaossmoke: /healthz does not report the degraded store:" >&2
    curl -sf "$URL/healthz" | jq . >&2
    exit 1
}
curl -sf "$URL/metrics" | grep -q 'discovery_server_store_fallback_total' || {
    echo "chaossmoke: /metrics missing the store fallback counter" >&2
    exit 1
}
echo "chaossmoke: phase B ok (store degraded, warm serving from fallback, healthz degraded)"
echo "chaossmoke: ok"
