#!/bin/sh
# End-to-end smoke test for the analysis daemon: build cmd/server, start
# it over a fresh disk store, submit the same Starbench workload twice,
# and assert the first fills the shared view cache and the second is
# answered from the result store with zero solver activity; then submit it once more with no_store and
# no_cache and assert it computes the same patterns with no cache
# activity. Exercises the real binary, the HTTP surface, and
# the store round-trip — the parts a package test stubs.
set -eu

GO=${GO:-go}
BENCH=${BENCH:-md5}
PORT=${PORT:-18080}
WORK=$(mktemp -d)
SRV=""

cleanup() {
    [ -n "$SRV" ] && kill "$SRV" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

"$GO" build -o "$WORK/server" ./cmd/server
"$WORK/server" -addr "127.0.0.1:$PORT" -store disk -store-dir "$WORK/store" &
SRV=$!

# Wait for the daemon to accept connections.
i=0
until curl -sf "http://127.0.0.1:$PORT/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "serversmoke: daemon never became healthy" >&2
        exit 1
    fi
    sleep 0.2
done

REQ="{\"bench\":\"$BENCH\",\"version\":\"pthreads\",\"options\":{\"verify\":true}}"

cold=$(curl -sf -X POST "http://127.0.0.1:$PORT/analyze" -d "$REQ")
echo "$cold" | jq -e '.store.status == "miss"' >/dev/null || {
    echo "serversmoke: cold run not a store miss:" >&2
    echo "$cold" | jq '.store, .diagnostics' >&2
    exit 1
}
echo "$cold" | jq -e '.diagnostics.solver_runs > 0 and .diagnostics.patterns > 0' >/dev/null || {
    echo "serversmoke: cold run did no analysis work:" >&2
    echo "$cold" | jq '.diagnostics' >&2
    exit 1
}

# The cold run filled the daemon's shared view cache.
curl -sf "http://127.0.0.1:$PORT/stats" | jq -e '.cache.entries > 0' >/dev/null || {
    echo "serversmoke: /stats cache block shows no entries after the cold run:" >&2
    curl -sf "http://127.0.0.1:$PORT/stats" | jq -c '.cache' >&2
    exit 1
}

warm=$(curl -sf -X POST "http://127.0.0.1:$PORT/analyze" -d "$REQ")
echo "$warm" | jq -e '.store.status == "hit" and .diagnostics.solver_runs == 0' >/dev/null || {
    echo "serversmoke: warm run not a zero-work store hit:" >&2
    echo "$warm" | jq '.store, .diagnostics' >&2
    exit 1
}

# The warm report must replay the cold run's document byte for byte.
if [ "$(echo "$cold" | jq -c '.report')" != "$(echo "$warm" | jq -c '.report')" ]; then
    echo "serversmoke: warm report differs from the cold run's" >&2
    exit 1
fi

# no_cache is kept for clients that compare cold and warm analyses: the
# request runs with no view cache, books no cache activity, and finds the
# same patterns. no_store makes it compute instead of replaying the store.
NOCACHE="{\"bench\":\"$BENCH\",\"version\":\"pthreads\",\"no_store\":true,\"options\":{\"verify\":true,\"no_cache\":true}}"
code=$(curl -s -o "$WORK/nocache.json" -w '%{http_code}' -X POST "http://127.0.0.1:$PORT/analyze" -d "$NOCACHE")
if [ "$code" != 200 ]; then
    echo "serversmoke: no_cache request got HTTP $code:" >&2
    cat "$WORK/nocache.json" >&2
    exit 1
fi
nocache=$(cat "$WORK/nocache.json")
echo "$nocache" | jq -e '.store.status == "bypass" and .diagnostics.cache_hits == 0 and .diagnostics.cache_misses == 0' >/dev/null || {
    echo "serversmoke: no_cache run not a cache-free store bypass:" >&2
    echo "$nocache" | jq '.store, .diagnostics' >&2
    exit 1
}
if [ "$(echo "$cold" | jq -c '.report.patterns')" != "$(echo "$nocache" | jq -c '.report.patterns')" ]; then
    echo "serversmoke: no_cache patterns differ from the cold run's" >&2
    exit 1
fi

metrics=$(curl -sf "http://127.0.0.1:$PORT/metrics")
echo "$metrics" | grep -q discovery_server_store_hits_total || {
    echo "serversmoke: /metrics missing the store-hit counter" >&2
    exit 1
}
# The shared solve pool must be sized and visible: the cold run above
# flowed its solver tasks through it, so the worker gauge and the task
# counter are both present in the exposition.
echo "$metrics" | grep -q discovery_sched_workers || {
    echo "serversmoke: /metrics missing the scheduler worker-pool gauge" >&2
    exit 1
}
echo "$metrics" | grep -q discovery_sched_tasks_total || {
    echo "serversmoke: /metrics missing the scheduler task counter" >&2
    exit 1
}

echo "serversmoke: ok (cold miss computed, warm hit served with solver_runs=0, no_cache run cache-free)"
