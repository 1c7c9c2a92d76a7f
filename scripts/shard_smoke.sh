#!/usr/bin/env bash
# shard_smoke.sh — CI gate for the distributed serving tier.
#
# Boots a race-instrumented three-process ring — two shard workers plus
# the coordinator with its HTTP API — and asserts the distributed
# contract end to end:
#   - ring agreement: every process must log the same [1 2] membership
#     (a worker configured with another ring reports a membership the
#     coordinator does not route by);
#   - exact values: a tic-tac-toe burst where every 200 must report the
#     known draw value (0), spread across both workers;
#   - a mixed random workload with duplicate traffic completes, and the
#     coordinator's /metrics shows shard task dispatch;
#   - distributed tracing: a one-client burst of X-GT-Trace'd requests
#     (each fanned out over the idle ring) is fired and
#     gtobs pulls the merged ring trace WHILE the burst is running; the
#     merged view must contain spans from all three processes, at least
#     one request must have left spans in the coordinator AND both
#     workers, and the per-stage histograms must reach /metrics;
#   - crash recovery: worker 2 is killed with SIGKILL in the middle of a
#     burst; the burst must still complete with every value exact (the
#     coordinator reissues orphaned tasks to the survivor), a fresh
#     exact-value burst against the degraded ring must pass, and the
#     coordinator's death/recovery gauges must have registered the kill;
#   - rejoin: the dead worker is restarted (new ephemeral port, peer
#     table pointing only at the coordinator); the coordinator must admit
#     it under a new epoch (worker_rejoins_total), and a fresh burst must
#     route tasks to the rejoined process, not just the survivor;
#   - empty ring: both workers killed; the degraded gauge must flip, a
#     burst must still return exact values from the coordinator's local
#     fallback pool (gtload counts the degraded 200s), and the
#     gauge must close once a worker returns;
#   - scaling (only when the host has >1 CPU): the same CPU-bound
#     workload through a 2-worker ring must reach >= 1.3x the qps of a
#     1-worker ring. Single-CPU hosts skip the ratio, not the gate.
#
# Artifacts (process logs, /metrics scrapes from all three processes,
# gtload transcripts, the merged Chrome/Perfetto ring trace, the
# per-request latency breakdown, and the coordinator's JSONL access
# log) land in shard-smoke-artifacts/ (override: ARTIFACT_DIR).
set -euo pipefail
cd "$(dirname "$0")/.."

ART=${ARTIFACT_DIR:-shard-smoke-artifacts}
mkdir -p "$ART"
BIN=$(mktemp -d)
PIDS=()
cleanup() {
    for p in "${PIDS[@]}"; do kill "$p" 2>/dev/null || true; done
    rm -rf "$BIN"
}
trap cleanup EXIT

go build -race -o "$BIN/gtserve" ./cmd/gtserve
go build -race -o "$BIN/gtload" ./cmd/gtload
go build -race -o "$BIN/gtobs" ./cmd/gtobs

wait_file() { # wait_file <path> [tries]
    local tries=${2:-100}
    for _ in $(seq 1 "$tries"); do [ -s "$1" ] && return 0; sleep 0.1; done
    echo "shard_smoke: $1 never appeared" >&2
    return 1
}

# qps <gtload transcript> — extract the completed-request rate.
qps() { awk -F'qps=' '/qps=/ {split($2, a, " "); print a[1]}' "$1"; }

start_worker() { # start_worker <proc> <procs> <workers-per-pool> [extra gtserve flags...]
    local proc=$1 procs=$2 wrk=$3
    shift 3
    rm -f "$BIN/w$proc.shard" "$BIN/w$proc.http"
    "$BIN/gtserve" -role worker -shard-proc "$proc" -shard-procs "$procs" \
        -shard-listen 127.0.0.1:0 -shard-portfile "$BIN/w$proc.shard" \
        -addr 127.0.0.1:0 -portfile "$BIN/w$proc.http" \
        -workers "$wrk" -table 65536 "$@" 2>>"$ART/worker$proc.log" &
    PIDS+=($!)
    eval "W${proc}PID=$!"
    wait_file "$BIN/w$proc.shard"
    wait_file "$BIN/w$proc.http"
}

start_coordinator() { # start_coordinator <peers> <procs>
    # The result cache is disabled so every completion below is a real
    # fan-out over the ring — with it on, the single-position ttt
    # workload would be answered from the coordinator's memory and the
    # crash gauntlet would prove nothing.
    "$BIN/gtserve" -role coordinator -shard-peers "$1" -shard-procs "$2" \
        -shard-listen 127.0.0.1:0 -shard-portfile "$BIN/c.shard" \
        -addr 127.0.0.1:0 -portfile "$BIN/c.http" \
        -pools 4 -cache -1 -task-timeout 500ms -dead-after 1s -local-fallback \
        -access-log "$ART/access.jsonl" 2>>"$ART/coordinator.log" &
    PIDS+=($!)
    CPID=$!
    wait_file "$BIN/c.http"
    URL="http://$(tr -d '\n' <"$BIN/c.http")"
}

echo "== boot: 2 workers + coordinator =="
start_worker 1 1,2 2
start_worker 2 1,2 2
W1HTTP="http://$(tr -d '\n' <"$BIN/w1.http")"
W2HTTP="http://$(tr -d '\n' <"$BIN/w2.http")"
start_coordinator "1=$(tr -d '\n' <"$BIN/w1.shard"),2=$(tr -d '\n' <"$BIN/w2.shard")" 1,2

grep -q 'ring \[1 2\]' "$ART/worker1.log" || { echo "shard_smoke: worker 1 ring mismatch"; exit 1; }
grep -q 'ring \[1 2\]' "$ART/worker2.log" || { echo "shard_smoke: worker 2 ring mismatch"; exit 1; }
curl -fsS "$URL/healthz" >"$ART/healthz.json"
grep -q '"backend":"shard"' "$ART/healthz.json"
curl -fsS "$W1HTTP/healthz" | grep -q '"role":"worker"'

echo "== exact-value burst (ttt, depth 9: every answer must be the draw) =="
"$BIN/gtload" -url "$URL" -game ttt -depth 9 -clients 4 -duration 2s \
    -expect 0 | tee "$ART/gtload-ttt.txt"

echo "== mixed random workload across the ring =="
"$BIN/gtload" -url "$URL" -game random -depth 7 -dup 0.5 -hot 8 \
    -clients 4 -duration 2s | tee "$ART/gtload-random.txt"

echo "== /metrics from all three processes =="
curl -fsS "$URL/metrics" >"$ART/coordinator-metrics.prom"
curl -fsS "$W1HTTP/metrics" >"$ART/worker1-metrics.prom"
curl -fsS "$W2HTTP/metrics" >"$ART/worker2-metrics.prom"
grep -q '^gametree_shard_tasks_total ' "$ART/coordinator-metrics.prom"
tasks=$(awk '/^gametree_shard_tasks_total /{print $2}' "$ART/coordinator-metrics.prom")
[ "$tasks" -gt 0 ] || { echo "shard_smoke: coordinator dispatched no tasks"; exit 1; }
grep -q '^gametree_shard_tasks_total ' "$ART/worker1-metrics.prom"
grep -q '^gametree_shard_rpc_ns_bucket' "$ART/coordinator-metrics.prom"

echo "== distributed trace: merged ring view pulled mid-burst =="
# One client: a lone request on the idle two-worker ring always fans out
# over it (a busy ring ships each request whole to one worker), so every
# traced request can straddle both shards.
"$BIN/gtload" -url "$URL" -game random -depth 6 -dup 0 -clients 1 \
    -duration 3s -trace smoke >"$ART/gtload-traced.txt" 2>&1 &
LOAD=$!
sleep 1.5
# Pull a merged view WHILE the burst is running: every ring process
# must answer /debug/gttrace under load.
"$BIN/gtobs" -ring "$URL,$W1HTTP,$W2HTTP" -out "$ART/ring-midburst.trace.json" \
    -trace smoke >/dev/null 2>"$ART/gtobs-midburst.log" \
    || { cat "$ART/gtobs-midburst.log"; echo "shard_smoke: mid-burst gtobs pull failed"; exit 1; }
wait "$LOAD" || { cat "$ART/gtload-traced.txt"; echo "shard_smoke: traced burst failed"; exit 1; }
cat "$ART/gtload-traced.txt"
# The settled view is the artifact of record: Chrome/Perfetto file plus
# the per-request latency-breakdown table.
"$BIN/gtobs" -ring "$URL,$W1HTTP,$W2HTTP" -out "$ART/ring.trace.json" \
    -trace smoke >"$ART/ring-breakdown.txt" 2>"$ART/gtobs.log"
cat "$ART/gtobs.log"
grep -Eq 'merged [0-9]+ spans from procs \[0 1 2\]' "$ART/gtobs.log" \
    || { echo "shard_smoke: merged trace is missing a ring process"; exit 1; }
# At least one request must have left spans in ALL THREE processes —
# the coordinator's expand/route/fold plus compute spans on both
# workers (the depth-6 fan-out straddles both shards).
curl -fsS "$URL/debug/gttrace" >"$ART/gttrace-coordinator.json"
curl -fsS "$W1HTTP/debug/gttrace" >"$ART/gttrace-worker1.json"
curl -fsS "$W2HTTP/debug/gttrace" >"$ART/gttrace-worker2.json"
trace_ids() { grep -o '"trace":"smoke-[0-9]*"' "$1" | sort -u; }
common=$(comm -12 <(trace_ids "$ART/gttrace-coordinator.json") \
    <(comm -12 <(trace_ids "$ART/gttrace-worker1.json") \
                <(trace_ids "$ART/gttrace-worker2.json")))
[ -n "$common" ] || { echo "shard_smoke: no single request traced across all three processes"; exit 1; }
echo "shard_smoke: $(echo "$common" | wc -l) requests traced across all three processes"
grep -q '"name":"expand"' "$ART/ring.trace.json" \
    || { echo "shard_smoke: merged trace has no coordinator expand span"; exit 1; }
grep -q '"name":"compute"' "$ART/ring.trace.json" \
    || { echo "shard_smoke: merged trace has no worker compute span"; exit 1; }
# Per-stage latency histograms feed /metrics on the coordinator.
curl -fsS "$URL/metrics" >"$ART/coordinator-metrics-traced.prom"
grep -q 'gametree_shard_stage_ns_bucket{stage="rpc"' "$ART/coordinator-metrics-traced.prom" \
    || { echo "shard_smoke: stage histogram missing from /metrics"; exit 1; }
# The traced requests also flowed through the JSONL access log.
grep -q '"outcome":"search"' "$ART/access.jsonl" \
    || { echo "shard_smoke: access log missing search entries"; exit 1; }

echo "== kill -9 worker 2 mid-burst: values must stay exact =="
"$BIN/gtload" -url "$URL" -game ttt -depth 9 -clients 4 -duration 6s \
    -deadline 8s -expect 0 >"$ART/gtload-crash.txt" 2>&1 &
LOAD=$!
sleep 2
kill -9 "$W2PID"
rc=0
wait "$LOAD" || rc=$?
cat "$ART/gtload-crash.txt"
[ "$rc" -eq 0 ] || { echo "shard_smoke: burst failed after worker crash (rc=$rc)"; exit 1; }

echo "== degraded ring still serves exact values =="
"$BIN/gtload" -url "$URL" -game ttt -depth 9 -clients 2 -duration 1s \
    -deadline 8s -expect 0 | tee "$ART/gtload-degraded.txt"
curl -fsS "$URL/metrics" >"$ART/coordinator-metrics-postcrash.prom"
# Tasks in flight to the dead worker must have been reissued to the
# survivor — the burst staying exact is the effect, this is the cause.
reissues=$(awk '/^gametree_shard_reissues_total /{print $2}' "$ART/coordinator-metrics-postcrash.prom")
[ "${reissues:-0}" -gt 0 ] || { echo "shard_smoke: no task reissues after worker crash"; exit 1; }
# The liveness sweep must have registered the kill, and once the
# post-death RPC p99 settles under threshold the recovery gauge closes
# with the detection-to-settled wall time. The degraded burst above
# supplies the completions; give the gauge a beat to close.
deaths=0
for _ in $(seq 1 50); do
    curl -fsS "$URL/metrics" >"$ART/coordinator-metrics-postcrash.prom"
    deaths=$(awk '/^gametree_shard_worker_deaths_total /{print $2}' "$ART/coordinator-metrics-postcrash.prom")
    recovering=$(awk '/^gametree_shard_recovering /{print $2}' "$ART/coordinator-metrics-postcrash.prom")
    [ "${deaths:-0}" -gt 0 ] && [ "${recovering:-1}" -eq 0 ] && break
    # The gauge closes on RPC completions; keep a trickle flowing.
    curl -fsS -X POST "$URL/v1/search" \
        -d '{"game":"ttt","depth":5}' >/dev/null 2>&1 || true
    sleep 0.2
done
[ "${deaths:-0}" -gt 0 ] || { echo "shard_smoke: worker death never registered in deaths_total"; exit 1; }
recovery_ns=$(awk '/^gametree_shard_recovery_last_ns /{print $2}' "$ART/coordinator-metrics-postcrash.prom")
echo "shard_smoke: deaths=$deaths recovering=${recovering:-?} recovery_last_ns=${recovery_ns:-?}" \
    | tee "$ART/recovery.txt"

# metric <name> <scrape-file> — one coordinator metric value (empty if absent).
metric() { awk -v m="$1" '$1 == m {print $2}' "$2"; }

echo "== rejoin: restart worker 2, the ring must heal under a new epoch =="
# The restarted process binds a NEW ephemeral port and knows only the
# coordinator's address: the coordinator must learn the new route from
# the rejoin ping, admit the worker under a bumped epoch, and resume
# routing its shard there.
start_worker 2 1,2 2 -shard-peers "0=$(tr -d '\n' <"$BIN/c.shard")"
W2HTTP="http://$(tr -d '\n' <"$BIN/w2.http")"
rejoins=0
for _ in $(seq 1 100); do
    curl -fsS "$URL/metrics" >"$ART/coordinator-metrics-rejoin.prom"
    rejoins=$(metric gametree_shard_worker_rejoins_total "$ART/coordinator-metrics-rejoin.prom")
    [ "${rejoins:-0}" -ge 1 ] && break
    sleep 0.1
done
[ "${rejoins:-0}" -ge 1 ] || { echo "shard_smoke: restarted worker never rejoined"; exit 1; }
# Post-rejoin routing: a fresh burst must land tasks on the restarted
# worker (its counters start at zero), not just the survivor.
"$BIN/gtload" -url "$URL" -game random -depth 6 -dup 0 -clients 4 \
    -duration 2s | tee "$ART/gtload-rejoin.txt"
curl -fsS "$W2HTTP/metrics" >"$ART/worker2-rejoin-metrics.prom"
w2tasks=$(metric gametree_shard_tasks_total "$ART/worker2-rejoin-metrics.prom")
[ "${w2tasks:-0}" -gt 0 ] || { echo "shard_smoke: no tasks routed to the rejoined worker"; exit 1; }
epoch=$(metric gametree_shard_epoch "$ART/coordinator-metrics-rejoin.prom")
echo "shard_smoke: rejoins=$rejoins epoch=${epoch:-?}, rejoined worker served $w2tasks tasks"

echo "== empty ring: local fallback keeps answers exact, degraded gauge flips =="
kill -9 "$W1PID" "$W2PID" 2>/dev/null || true
# The failure detector (-dead-after 1s) must empty the live ring and
# flip the degraded gauge without any traffic prompting it.
degraded=0
for _ in $(seq 1 100); do
    curl -fsS "$URL/metrics" >"$ART/coordinator-metrics-empty.prom"
    degraded=$(metric gametree_shard_degraded "$ART/coordinator-metrics-empty.prom")
    [ "${degraded:-0}" -eq 1 ] && break
    sleep 0.1
done
[ "${degraded:-0}" -eq 1 ] || { echo "shard_smoke: degraded gauge never flipped with an empty ring"; exit 1; }
"$BIN/gtload" -url "$URL" -game ttt -depth 9 -clients 2 -duration 2s \
    -deadline 8s -expect 0 | tee "$ART/gtload-emptyring.txt"
grep -Eq 'degraded=[1-9]' "$ART/gtload-emptyring.txt" \
    || { echo "shard_smoke: empty-ring burst reported no degraded responses"; exit 1; }
degraded_tasks=$(metric gametree_shard_degraded_tasks_total <(curl -fsS "$URL/metrics"))
[ "${degraded_tasks:-0}" -gt 0 ] || { echo "shard_smoke: no leaves computed on the local fallback pool"; exit 1; }

echo "== recovery: a returning worker closes the degraded gauge =="
start_worker 1 1,2 2 -shard-peers "0=$(tr -d '\n' <"$BIN/c.shard")"
degraded=1
for _ in $(seq 1 100); do
    curl -fsS "$URL/metrics" >"$ART/coordinator-metrics-recovered.prom"
    degraded=$(metric gametree_shard_degraded "$ART/coordinator-metrics-recovered.prom")
    [ "${degraded:-1}" -eq 0 ] && break
    sleep 0.1
done
[ "${degraded:-1}" -eq 0 ] || { echo "shard_smoke: degraded gauge never closed after a worker returned"; exit 1; }
epoch=$(metric gametree_shard_epoch "$ART/coordinator-metrics-recovered.prom")
echo "shard_smoke: ring recovered, degraded=0 epoch=${epoch:-?}"

echo "== scaling ratio: 2-worker ring vs 1-worker ring (CPU-gated) =="
for p in "${PIDS[@]}"; do kill "$p" 2>/dev/null || true; wait "$p" 2>/dev/null || true; done
PIDS=()
if [ "$(nproc)" -ge 2 ]; then
    rm -f "$BIN"/*.shard "$BIN"/*.http
    # CPU-bound workload (no duplicate traffic, so the result cache and
    # the hot set don't mask worker throughput), one engine worker per
    # shard: the only variable between the runs is the worker count.
    start_worker 1 1 1
    start_coordinator "1=$(tr -d '\n' <"$BIN/w1.shard")" 1
    "$BIN/gtload" -url "$URL" -game random -depth 7 -dup 0 -clients 4 \
        -duration 3s >"$ART/gtload-s1.txt" 2>&1
    for p in "${PIDS[@]}"; do kill "$p" 2>/dev/null || true; wait "$p" 2>/dev/null || true; done
    PIDS=()

    rm -f "$BIN"/*.shard "$BIN"/*.http
    start_worker 1 1,2 1
    start_worker 2 1,2 1
    start_coordinator "1=$(tr -d '\n' <"$BIN/w1.shard"),2=$(tr -d '\n' <"$BIN/w2.shard")" 1,2
    "$BIN/gtload" -url "$URL" -game random -depth 7 -dup 0 -clients 4 \
        -duration 3s >"$ART/gtload-s2.txt" 2>&1

    q1=$(qps "$ART/gtload-s1.txt"); q2=$(qps "$ART/gtload-s2.txt")
    echo "shard_smoke: qps shards=1 $q1, shards=2 $q2"
    awk -v a="$q1" -v b="$q2" 'BEGIN { exit !(b >= 1.3 * a) }' \
        || { echo "shard_smoke: 2-worker ring under 1.3x of 1-worker ($q2 vs $q1)"; exit 1; }
else
    echo "shard_smoke: single CPU, skipping scaling ratio"
fi

echo "shard_smoke: PASS"
