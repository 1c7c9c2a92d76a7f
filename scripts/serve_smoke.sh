#!/usr/bin/env bash
# serve_smoke.sh — CI gate for the resident search service.
#
# Boots a race-instrumented gtserve on an ephemeral port, then asserts
# the full contract end to end:
#   - exact values: a tic-tac-toe burst where every 200 must report the
#     known draw value (0) — wrong answers fail, not just errors;
#   - a mixed random workload completes against the same process;
#   - /metrics exposes the serve families next to the engine families
#     (scrape saved as a CI artifact);
#   - the table takes its memory on the first store: 0 table bytes on
#     /metrics right after boot, 16 per entry after the ttt burst;
#   - overload: an open-loop arrival rate far above capacity must be
#     shed with 429/503, not absorbed or crashed on;
#   - SIGTERM drains cleanly: in-flight answered, exit code 0.
#
# Artifacts land in serve-smoke-artifacts/ (override: ARTIFACT_DIR).
set -euo pipefail
cd "$(dirname "$0")/.."

ART=${ARTIFACT_DIR:-serve-smoke-artifacts}
mkdir -p "$ART"
BIN=$(mktemp -d)
SRV=""
cleanup() {
    [ -n "$SRV" ] && kill "$SRV" 2>/dev/null
    rm -rf "$BIN"
}
trap cleanup EXIT

go build -race -o "$BIN/gtserve" ./cmd/gtserve
go build -race -o "$BIN/gtload" ./cmd/gtload

PORTFILE="$BIN/port"
TABLE=65536
"$BIN/gtserve" -addr 127.0.0.1:0 -portfile "$PORTFILE" \
    -pools 2 -workers 2 -queue 2 -cache 256 -table "$TABLE" 2>"$ART/gtserve.log" &
SRV=$!
for _ in $(seq 1 100); do [ -s "$PORTFILE" ] && break; sleep 0.1; done
[ -s "$PORTFILE" ] || { echo "serve_smoke: server never bound"; exit 1; }
URL="http://$(tr -d '\n' <"$PORTFILE")"

curl -fsS "$URL/healthz" >"$ART/healthz.json"

table_bytes() { # table_bytes <scrape file> -> the table's memory sample
    awk '/^gametree_memory_bytes\{owner="table"\} /{print $2}' "$1"
}
echo "== table memory at boot (none before the first store) =="
curl -fsS "$URL/metrics" >"$ART/metrics-boot.prom"
[ "$(table_bytes "$ART/metrics-boot.prom")" = "0" ] || {
    echo "serve_smoke: table holds memory at boot: $(table_bytes "$ART/metrics-boot.prom")"; exit 1; }

echo "== exact-value burst (ttt, depth 9: every answer must be the draw) =="
"$BIN/gtload" -url "$URL" -game ttt -depth 9 -clients 4 -duration 2s \
    -expect 0 | tee "$ART/gtload-ttt.txt"
curl -fsS "$URL/metrics" >"$ART/metrics-ttt.prom"
[ "$(table_bytes "$ART/metrics-ttt.prom")" = "$((16 * TABLE))" ] || {
    echo "serve_smoke: table after the ttt burst holds $(table_bytes "$ART/metrics-ttt.prom") bytes, want $((16 * TABLE))"; exit 1; }

echo "== mixed random workload (closed loop) =="
"$BIN/gtload" -url "$URL" -game random -depth 7 -dup 0.75 -hot 8 \
    -clients 4 -duration 2s | tee "$ART/gtload-random.txt"

echo "== /metrics scrape =="
curl -fsS "$URL/metrics" >"$ART/metrics.prom"
grep -q '^gametree_serve_admitted_total ' "$ART/metrics.prom"
grep -q '^gametree_serve_requests_total ' "$ART/metrics.prom"
grep -q '^gametree_nodes_total ' "$ART/metrics.prom"

echo "== overload probe (open loop, far above 2-pool capacity) =="
"$BIN/gtload" -url "$URL" -game random -depth 9 -dup 0 -qps 500 \
    -maxinflight 128 -duration 2s -deadline 250ms \
    | tee "$ART/gtload-overload.txt" || true
shed=$(awk '/shed_429/ {
    for (i = 1; i <= NF; i++) {
        split($i, kv, "=");
        if (kv[1] == "shed_429" || kv[1] == "shed_503") s += kv[2]
    }
} END { print s + 0 }' "$ART/gtload-overload.txt")
[ "$shed" -gt 0 ] || { echo "serve_smoke: overload did not shed (shed=$shed)"; exit 1; }

echo "== SIGTERM drain =="
kill -TERM "$SRV"
rc=0
wait "$SRV" || rc=$?
SRV=""
[ "$rc" -eq 0 ] || { echo "serve_smoke: drain exited $rc"; cat "$ART/gtserve.log"; exit 1; }
grep -q 'clean drain' "$ART/gtserve.log"

echo "serve_smoke: PASS (shed=$shed)"
