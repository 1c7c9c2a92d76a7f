#!/usr/bin/env bash
# solve_smoke.sh — CI gate for the proof-number solver service.
#
# Boots a race-instrumented gtserve on an ephemeral port, then asserts
# the /v1/solve contract end to end:
#   - exact proofs: a table of Sprague-Grundy-known Nim/Kayles instances
#     where every verdict must match the oracle — wrong proofs fail;
#   - a concurrent solve burst (gtload -solve) completes with verdicts
#     consistent per position and nothing failed;
#   - mid-solve client cancel: a streaming solve of a deliberately huge
#     instance is dropped after the first progress frame, and the pns
#     counters on /metrics must stop advancing — the workers were
#     released promptly, not left grinding a dead request — with the
#     partial tree parked for resume;
#   - a follow-up solve on the freed pool completes (the token came
#     back);
#   - the gtprove bench suite (sequential PN, PN², pooled PNS at 1/2/4
#     workers) runs to completion with every verdict matching its
#     oracle; its transcript lands as an artifact.
#
# Artifacts land in solve-smoke-artifacts/ (override: ARTIFACT_DIR).
set -euo pipefail
cd "$(dirname "$0")/.."

ART=${ARTIFACT_DIR:-solve-smoke-artifacts}
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
# The bench binary is deliberately not race-built: its rows go into the
# transcript and race instrumentation would make the numbers meaningless.
go build -o "$BIN/gtprove" ./cmd/gtprove

PORTFILE="$BIN/port"
"$BIN/gtserve" -addr 127.0.0.1:0 -portfile "$PORTFILE" \
    -pools 2 -workers 2 -cache 256 -access-log "$ART/access.jsonl" \
    2>"$ART/gtserve.log" &
SRV=$!
for _ in $(seq 1 100); do [ -s "$PORTFILE" ] && break; sleep 0.1; done
[ -s "$PORTFILE" ] || { echo "solve_smoke: server never bound"; exit 1; }
URL="http://$(tr -d '\n' <"$PORTFILE")"

solve() { # solve <game> <position> -> response body
    curl -fsS -X POST -H 'Content-Type: application/json' \
        -d "{\"game\":\"$1\",\"position\":\"$2\"}" "$URL/v1/solve"
}

echo "== exact proofs (Sprague-Grundy oracle) =="
# nim: first player wins iff the heap xor is nonzero.
# kayles: same, over the period-12 Grundy sequence.
while read -r game pos want; do
    body=$(solve "$game" "$pos")
    echo "$game $pos -> $body" >>"$ART/verdicts.txt"
    echo "$body" | grep -q "\"verdict\":\"$want\"" || {
        echo "solve_smoke: $game $pos: want $want, got: $body"; exit 1; }
done <<'EOF'
nim 1,2,3 disproven
nim 1,2,4 proven
nim 5,5 disproven
nim 7 proven
kayles 1 proven
kayles 3,2,1 disproven
kayles 5,6 proven
EOF

echo "== concurrent solve burst =="
"$BIN/gtload" -url "$URL" -solve -game nim -clients 4 -duration 2s \
    -dup 0.5 -hot 8 | tee "$ART/gtload-solve.txt"
grep -q 'failed=0' "$ART/gtload-solve.txt" || {
    echo "solve_smoke: burst had failures"; exit 1; }

echo "== mid-solve client cancel =="
pn_nodes() {
    curl -fsS "$URL/metrics" | awk '/^gametree_pn_nodes_total /{print int($2)}'
}
# A four-heap Nim far beyond any smoke budget, streamed; curl gives up
# after 2 seconds, which closes the connection mid-solve.
curl -sS -m 2 -X POST -H 'Content-Type: application/json' \
    -d '{"game":"nim","position":"20,30,40,50","stream":true,"deadline_ms":25000,"progress_ms":50}' \
    "$URL/v1/solve" >"$ART/cancelled-stream.ndjson" || true
[ -s "$ART/cancelled-stream.ndjson" ] || {
    echo "solve_smoke: cancelled stream produced no frames"; exit 1; }
sleep 0.5
n0=$(pn_nodes)
sleep 1
n1=$(pn_nodes)
delta=$((n1 - n0))
# Released workers mean a flat pn-node counter; a leaked solve would
# still be expanding tens of thousands of nodes per second here.
[ "$delta" -lt 5000 ] || {
    echo "solve_smoke: pn nodes still advancing after cancel (delta=$delta)"; exit 1; }

curl -fsS "$URL/metrics" >"$ART/metrics.prom"
grep -q '^gametree_serve_solve_requests_total ' "$ART/metrics.prom"
parked=$(awk '/^gametree_serve_solve_partial_total /{print int($2)}' "$ART/metrics.prom")
[ "${parked:-0}" -ge 1 ] || {
    echo "solve_smoke: cancelled solve was not parked (partial=$parked)"; exit 1; }

echo "== post-cancel solve (pool token must be free) =="
body=$(solve nim 2,4,6)
echo "$body" | grep -q '"verdict":"disproven"' || {
    echo "solve_smoke: post-cancel solve wrong: $body"; exit 1; }

echo "== SIGTERM drain =="
kill -TERM "$SRV"
rc=0
wait "$SRV" || rc=$?
SRV=""
[ "$rc" -eq 0 ] || { echo "solve_smoke: drain exited $rc"; cat "$ART/gtserve.log"; exit 1; }
# Solves go through the same request pipeline as searches, access log included.
grep -q '"outcome":"solve"' "$ART/access.jsonl" \
    || { echo "solve_smoke: access log has no /v1/solve line"; exit 1; }

echo "== gtprove bench suite (verdicts checked against their oracles) =="
"$BIN/gtprove" -bench -reps 2 | tee "$ART/gtprove-bench.txt"

echo "solve_smoke: PASS (cancel delta=$delta, parked=$parked)"
