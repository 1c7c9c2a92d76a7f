#!/usr/bin/env bash
# load_compare.sh — regenerate the BENCH_serve.json trajectory.
#
# Four runs of the identical deterministic workload (random game,
# duplicate-heavy mix) land in one benchfmt document:
#   run 1  label=baseline  gtload -baseline: one independent
#                          engine.SearchOpt per request over a shared
#                          table — no pool residency, no coalescing, no
#                          result cache;
#   run 2  label=shard1    a distributed ring of one coordinator + one
#                          shard worker process over TCP (rows keyed
#                          .../s1);
#   run 3  label=shard2    the same ring with two worker processes
#                          (rows keyed .../s2 — the /sN suffix keeps
#                          the distributed rows from colliding with the
#                          single-process ones);
#   run 4  label=serve     the same stream against a resident
#                          single-process gtserve.
# Rows align by (workload, name, workers[, shards]), so the closing
# gtstat call gates the service against the baseline on sustained QPS:
# the resident path must not be >15% slower, and on every host measured
# so far it is a multiple faster (EXPERIMENTS.md E15 has the numbers).
# The shard rows are history, not a gate here — the 2-worker-vs-1-worker
# scaling ratio is gated in shard_smoke.sh, and only on hosts with more
# than one CPU (on a single-CPU host both rings share the one core and
# the ratio is meaningless; EXPERIMENTS.md E20 discusses this).
#
# Usage: scripts/load_compare.sh [out.json]
#   env: DURATION=5s WORKERS=8 POOLS=2 DEPTH=8
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${1:-BENCH_serve.json}
DUR=${DURATION:-5s}
WORKERS=${WORKERS:-8}
POOLS=${POOLS:-2}
DEPTH=${DEPTH:-8}
BIN=$(mktemp -d)
PIDS=()
cleanup() {
    for p in "${PIDS[@]}"; do kill "$p" 2>/dev/null || true; done
    rm -rf "$BIN"
}
trap cleanup EXIT

go build -o "$BIN/gtserve" ./cmd/gtserve
go build -o "$BIN/gtload" ./cmd/gtload
rm -f "$OUT"

wait_file() {
    for _ in $(seq 1 100); do [ -s "$1" ] && return 0; sleep 0.1; done
    echo "load_compare: $1 never appeared" >&2
    return 1
}

stop_all() {
    for p in "${PIDS[@]}"; do kill "$p" 2>/dev/null || true; wait "$p" 2>/dev/null || true; done
    PIDS=()
    rm -f "$BIN"/*.shard "$BIN"/*.http "$BIN/port"
}

# run_ring <nworkers> — boot a coordinator + N shard workers, leave the
# coordinator URL in $URL.
run_ring() {
    local n=$1 procs peers=""
    procs=$(seq -s, 1 "$n")
    for i in $(seq 1 "$n"); do
        "$BIN/gtserve" -role worker -shard-proc "$i" -shard-procs "$procs" \
            -shard-listen 127.0.0.1:0 -shard-portfile "$BIN/w$i.shard" \
            -addr 127.0.0.1:0 -portfile "$BIN/w$i.http" \
            -workers "$WORKERS" 2>"$BIN/worker$i.log" &
        PIDS+=($!)
        wait_file "$BIN/w$i.shard"
        peers+="${peers:+,}$i=$(tr -d '\n' <"$BIN/w$i.shard")"
    done
    "$BIN/gtserve" -role coordinator -shard-peers "$peers" -shard-procs "$procs" \
        -shard-listen 127.0.0.1:0 -addr 127.0.0.1:0 -portfile "$BIN/c.http" \
        -pools "$POOLS" 2>"$BIN/coordinator.log" &
    PIDS+=($!)
    wait_file "$BIN/c.http"
    URL="http://$(tr -d '\n' <"$BIN/c.http")"
}

echo "== run 1: per-request baseline (workers=$WORKERS) =="
"$BIN/gtload" -baseline -game random -depth "$DEPTH" -dup 0.75 -hot 16 \
    -clients 8 -duration "$DUR" -workers "$WORKERS" -label baseline -out "$OUT"

echo "== run 2: distributed ring, 1 shard worker =="
run_ring 1
"$BIN/gtload" -url "$URL" -game random -depth "$DEPTH" -dup 0.75 -hot 16 \
    -clients 8 -duration "$DUR" -workers "$WORKERS" -shards 1 \
    -label shard1 -out "$OUT"
stop_all

echo "== run 3: distributed ring, 2 shard workers =="
run_ring 2
"$BIN/gtload" -url "$URL" -game random -depth "$DEPTH" -dup 0.75 -hot 16 \
    -clients 8 -duration "$DUR" -workers "$WORKERS" -shards 2 \
    -label shard2 -out "$OUT"
stop_all

echo "== run 4: resident service (pools=$POOLS x workers=$WORKERS) =="
PORTFILE="$BIN/port"
"$BIN/gtserve" -addr 127.0.0.1:0 -portfile "$PORTFILE" \
    -pools "$POOLS" -workers "$WORKERS" 2>"$BIN/gtserve.log" &
SRV=$!
PIDS+=($SRV)
wait_file "$PORTFILE" || { cat "$BIN/gtserve.log"; exit 1; }
"$BIN/gtload" -url "http://$(tr -d '\n' <"$PORTFILE")" \
    -game random -depth "$DEPTH" -dup 0.75 -hot 16 \
    -clients 8 -duration "$DUR" -workers "$WORKERS" -label serve -out "$OUT"

kill -TERM "$SRV"
rc=0
wait "$SRV" || rc=$?
PIDS=()
[ "$rc" -eq 0 ] || { echo "load_compare: drain exited $rc"; cat "$BIN/gtserve.log"; exit 1; }

echo "== gate: serve vs baseline on sustained QPS =="
go run ./cmd/gtstat -metric qps -threshold 0.15 "$OUT"
