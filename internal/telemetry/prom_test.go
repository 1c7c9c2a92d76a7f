package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// promGolden is the exact exposition of the recorder built by
// buildPromFixture. The golden pin is the format contract: metric names,
// HELP/TYPE lines, label ordering (workers ascending, `le` ascending,
// +Inf last) and the cumulative bucket series must never drift, because
// dashboards and scrape configs key off them.
const promGolden = `# HELP gametree_nodes_total Positions visited by the search.
# TYPE gametree_nodes_total counter
gametree_nodes_total 1000
# HELP gametree_tasks_total Speculative sibling tasks executed.
# TYPE gametree_tasks_total counter
gametree_tasks_total 12
# HELP gametree_splits_total Split points opened.
# TYPE gametree_splits_total counter
gametree_splits_total 3
# HELP gametree_nested_splits_total Split points opened beneath an enclosing split.
# TYPE gametree_nested_splits_total counter
gametree_nested_splits_total 1
# HELP gametree_steal_attempts_total Steal attempts on a non-empty victim deque.
# TYPE gametree_steal_attempts_total counter
gametree_steal_attempts_total 8
# HELP gametree_steals_total Steal attempts that won the task.
# TYPE gametree_steals_total counter
gametree_steals_total 6
# HELP gametree_aborts_total Tasks skipped or pre-empted by an abort.
# TYPE gametree_aborts_total counter
gametree_aborts_total 2
# HELP gametree_nested_aborts_total Aborts propagated from an ancestor split's cutoff.
# TYPE gametree_nested_aborts_total counter
gametree_nested_aborts_total 1
# HELP gametree_abort_drains_total Joins that drained after a beta cutoff.
# TYPE gametree_abort_drains_total counter
gametree_abort_drains_total 2
# HELP gametree_pool_parks_total Times an idle pool helper parked on the condition variable.
# TYPE gametree_pool_parks_total counter
gametree_pool_parks_total 4
# HELP gametree_tt_probes_total Transposition-table probes.
# TYPE gametree_tt_probes_total counter
gametree_tt_probes_total 40
# HELP gametree_tt_hits_total Transposition-table probe hits.
# TYPE gametree_tt_hits_total counter
gametree_tt_hits_total 10
# HELP gametree_tt_stores_total Transposition-table stores.
# TYPE gametree_tt_stores_total counter
gametree_tt_stores_total 30
# HELP gametree_tt_evictions_total Stores that displaced a live entry.
# TYPE gametree_tt_evictions_total counter
gametree_tt_evictions_total 1
# HELP gametree_msgs_sent_total Message-passing messages sent.
# TYPE gametree_msgs_sent_total counter
gametree_msgs_sent_total 0
# HELP gametree_msgs_recv_total Message-passing messages received.
# TYPE gametree_msgs_recv_total counter
gametree_msgs_recv_total 0
# HELP gametree_msgs_stale_total Message-passing messages dropped as stale.
# TYPE gametree_msgs_stale_total counter
gametree_msgs_stale_total 0
# HELP gametree_shard_tasks_total Root tasks dispatched to shard workers.
# TYPE gametree_shard_tasks_total counter
gametree_shard_tasks_total 9
# HELP gametree_shard_reissues_total Tasks reissued after a shard worker timed out or died.
# TYPE gametree_shard_reissues_total counter
gametree_shard_reissues_total 1
# HELP gametree_remote_probes_total Transposition-table probes sent to the owning shard.
# TYPE gametree_remote_probes_total counter
gametree_remote_probes_total 20
# HELP gametree_remote_hits_total Remote TT probes answered with a usable entry.
# TYPE gametree_remote_hits_total counter
gametree_remote_hits_total 5
# HELP gametree_remote_stores_total Transposition-table stores forwarded to the owning shard.
# TYPE gametree_remote_stores_total counter
gametree_remote_stores_total 15
# HELP gametree_remote_skips_total Remote TT probes skipped because the in-flight window was full.
# TYPE gametree_remote_skips_total counter
gametree_remote_skips_total 2
# HELP gametree_pn_nodes_total Nodes traversed during proof-number most-proving descents.
# TYPE gametree_pn_nodes_total counter
gametree_pn_nodes_total 50
# HELP gametree_pn_expands_total Leaves expanded by the proof-number solver.
# TYPE gametree_pn_expands_total counter
gametree_pn_expands_total 14
# HELP gametree_pn_updates_total Ancestor proof/disproof-number recomputations.
# TYPE gametree_pn_updates_total counter
gametree_pn_updates_total 28
# HELP gametree_workers Worker shards registered with the recorder.
# TYPE gametree_workers gauge
gametree_workers 2
# HELP gametree_deque_high_water Deepest deque observed on any worker.
# TYPE gametree_deque_high_water gauge
gametree_deque_high_water 3
# HELP gametree_worker_tasks_total Speculative tasks executed, per worker.
# TYPE gametree_worker_tasks_total counter
gametree_worker_tasks_total{worker="0"} 7
gametree_worker_tasks_total{worker="1"} 5
# HELP gametree_abort_drain_ns Cutoff-to-drain latency of beta-aborted joins, nanoseconds.
# TYPE gametree_abort_drain_ns histogram
gametree_abort_drain_ns_bucket{le="1"} 0
gametree_abort_drain_ns_bucket{le="2"} 0
gametree_abort_drain_ns_bucket{le="4"} 0
gametree_abort_drain_ns_bucket{le="8"} 0
gametree_abort_drain_ns_bucket{le="16"} 0
gametree_abort_drain_ns_bucket{le="32"} 0
gametree_abort_drain_ns_bucket{le="64"} 0
gametree_abort_drain_ns_bucket{le="128"} 1
gametree_abort_drain_ns_bucket{le="256"} 1
gametree_abort_drain_ns_bucket{le="512"} 1
gametree_abort_drain_ns_bucket{le="1024"} 1
gametree_abort_drain_ns_bucket{le="2048"} 2
gametree_abort_drain_ns_bucket{le="+Inf"} 2
gametree_abort_drain_ns_sum 2100
gametree_abort_drain_ns_count 2
# HELP gametree_task_run_ns Wall time of one speculative sibling task, nanoseconds.
# TYPE gametree_task_run_ns histogram
gametree_task_run_ns_bucket{le="+Inf"} 0
gametree_task_run_ns_sum 0
gametree_task_run_ns_count 0
# HELP gametree_steal_retries CAS retries per steal attempt on a non-empty victim deque.
# TYPE gametree_steal_retries histogram
gametree_steal_retries_bucket{le="1"} 8
gametree_steal_retries_bucket{le="+Inf"} 8
gametree_steal_retries_sum 4
gametree_steal_retries_count 8
# HELP gametree_deque_depth Owner deque depth observed when a split pushes its tasks.
# TYPE gametree_deque_depth histogram
gametree_deque_depth_bucket{le="1"} 1
gametree_deque_depth_bucket{le="2"} 2
gametree_deque_depth_bucket{le="4"} 3
gametree_deque_depth_bucket{le="+Inf"} 3
gametree_deque_depth_sum 6
gametree_deque_depth_count 3
# HELP gametree_tt_probe_depth Remaining search depth at each transposition-table probe.
# TYPE gametree_tt_probe_depth histogram
gametree_tt_probe_depth_bucket{le="1"} 0
gametree_tt_probe_depth_bucket{le="2"} 0
gametree_tt_probe_depth_bucket{le="4"} 40
gametree_tt_probe_depth_bucket{le="+Inf"} 40
gametree_tt_probe_depth_sum 160
gametree_tt_probe_depth_count 40
# HELP gametree_msg_residence_ns Message-passing mailbox residence from send to drain, nanoseconds.
# TYPE gametree_msg_residence_ns histogram
gametree_msg_residence_ns_bucket{le="+Inf"} 0
gametree_msg_residence_ns_sum 0
gametree_msg_residence_ns_count 0
# HELP gametree_split_depth Remaining search depth at each opened split point.
# TYPE gametree_split_depth histogram
gametree_split_depth_bucket{le="1"} 0
gametree_split_depth_bucket{le="2"} 0
gametree_split_depth_bucket{le="4"} 1
gametree_split_depth_bucket{le="8"} 3
gametree_split_depth_bucket{le="+Inf"} 3
gametree_split_depth_sum 17
gametree_split_depth_count 3
# HELP gametree_shard_rpc_ns Shard RPC round-trip latency (task dispatch to result, TT probe to reply), nanoseconds.
# TYPE gametree_shard_rpc_ns histogram
gametree_shard_rpc_ns_bucket{le="1"} 0
gametree_shard_rpc_ns_bucket{le="2"} 0
gametree_shard_rpc_ns_bucket{le="4"} 0
gametree_shard_rpc_ns_bucket{le="8"} 0
gametree_shard_rpc_ns_bucket{le="16"} 0
gametree_shard_rpc_ns_bucket{le="32"} 0
gametree_shard_rpc_ns_bucket{le="64"} 0
gametree_shard_rpc_ns_bucket{le="128"} 0
gametree_shard_rpc_ns_bucket{le="256"} 0
gametree_shard_rpc_ns_bucket{le="512"} 0
gametree_shard_rpc_ns_bucket{le="1024"} 0
gametree_shard_rpc_ns_bucket{le="2048"} 0
gametree_shard_rpc_ns_bucket{le="4096"} 0
gametree_shard_rpc_ns_bucket{le="8192"} 0
gametree_shard_rpc_ns_bucket{le="16384"} 0
gametree_shard_rpc_ns_bucket{le="32768"} 1
gametree_shard_rpc_ns_bucket{le="+Inf"} 1
gametree_shard_rpc_ns_sum 30000
gametree_shard_rpc_ns_count 1
# HELP gametree_pns_mpn_depth Tree depth of each most-proving node a proof-number worker descended to.
# TYPE gametree_pns_mpn_depth histogram
gametree_pns_mpn_depth_bucket{le="1"} 0
gametree_pns_mpn_depth_bucket{le="2"} 0
gametree_pns_mpn_depth_bucket{le="4"} 1
gametree_pns_mpn_depth_bucket{le="8"} 2
gametree_pns_mpn_depth_bucket{le="+Inf"} 2
gametree_pns_mpn_depth_sum 9
gametree_pns_mpn_depth_count 2
`

// buildPromFixture populates a recorder with a small deterministic state
// covering every family kind: plain counters, gauges, a labelled
// per-worker counter, and histograms that are empty, single-bucket and
// multi-bucket.
func buildPromFixture() *Recorder {
	r := NewRecorder()
	a, b := r.Shard(0), r.Shard(1)
	a.Nodes.Add(600)
	b.Nodes.Add(400)
	a.Tasks.Add(7)
	b.Tasks.Add(5)
	a.Splits.Add(3)
	a.NestedSplits.Add(1)
	a.StealAttempts.Add(8)
	a.Steals.Add(6)
	a.Aborts.Add(2)
	a.NestedAborts.Add(1)
	a.AbortDrains.Add(2)
	b.Parks.Add(4)
	a.TTProbes.Add(40)
	a.TTHits.Add(10)
	a.TTStores.Add(30)
	a.TTEvictions.Add(1)
	a.Hist[HistAbortDrainNs].Observe(100)
	b.Hist[HistAbortDrainNs].Observe(2000)
	for i := 0; i < 8; i++ {
		a.Hist[HistStealRetries].Observe(int64(i % 2)) // retries 0,1,...
	}
	a.ObserveDeque(1)
	a.ObserveDeque(2)
	b.ObserveDeque(3)
	for i := 0; i < 40; i++ {
		a.Hist[HistTTProbeDepth].Observe(4)
	}
	a.Hist[HistSplitDepth].Observe(8)
	a.Hist[HistSplitDepth].Observe(5)
	b.Hist[HistSplitDepth].Observe(4)
	a.ShardTasks.Add(9)
	a.ShardReissues.Add(1)
	a.RemoteProbes.Add(20)
	a.RemoteHits.Add(5)
	a.RemoteStores.Add(15)
	a.RemoteSkips.Add(2)
	a.Hist[HistShardRPCNs].Observe(30000)
	a.PNNodes.Add(50)
	a.PNExpands.Add(14)
	b.PNUpdates.Add(28)
	a.Hist[HistPNMPNDepth].Observe(3)
	b.Hist[HistPNMPNDepth].Observe(6)
	return r
}

// TestWritePromGolden pins the exposition byte-for-byte.
func TestWritePromGolden(t *testing.T) {
	var sb strings.Builder
	if err := buildPromFixture().WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != promGolden {
		t.Fatalf("exposition drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", got, promGolden)
	}
}

// TestPromParses runs a minimal exposition-format parser over the output:
// every non-comment line is `name{labels} value` or `name value`, every
// family has HELP and TYPE before its samples, histogram buckets are
// cumulative with +Inf equal to _count. This is what "parseable
// Prometheus text" means without importing a client library.
func TestPromParses(t *testing.T) {
	var sb strings.Builder
	if err := buildPromFixture().WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	helped := map[string]bool{}
	typed := map[string]string{}
	var histFamilies int
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	var lastBucket int64
	var lastFamily string
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# HELP ") {
			helped[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			typed[f[2]] = f[3]
			if f[3] == "histogram" {
				histFamilies++
			}
			continue
		}
		name, value, err := parsePromSample(line)
		if err != nil {
			t.Fatalf("unparseable line %q: %v", line, err)
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if typed[strings.TrimSuffix(name, suffix)] == "histogram" {
				family = strings.TrimSuffix(name, suffix)
			}
		}
		if !helped[family] || typed[family] == "" {
			t.Fatalf("sample %q has no preceding HELP/TYPE for family %q", line, family)
		}
		if strings.HasSuffix(name, "_bucket") {
			if family != lastFamily {
				lastFamily, lastBucket = family, 0
			}
			if value < lastBucket {
				t.Fatalf("bucket series of %s not cumulative: %d after %d", family, value, lastBucket)
			}
			lastBucket = value
		}
	}
	if histFamilies < 8 {
		t.Fatalf("exposition has %d histogram families, want at least 8", histFamilies)
	}
}

// parsePromSample splits one sample line into metric name and integer
// value (all families in this exposition are integral).
func parsePromSample(line string) (string, int64, error) {
	sp := strings.LastIndexByte(line, ' ')
	if sp < 0 {
		return "", 0, fmt.Errorf("no value separator")
	}
	v, err := strconv.ParseInt(line[sp+1:], 10, 64)
	if err != nil {
		return "", 0, err
	}
	name := line[:sp]
	if i := strings.IndexByte(name, '{'); i >= 0 {
		if !strings.HasSuffix(name, "}") {
			return "", 0, fmt.Errorf("unbalanced label braces")
		}
		name = name[:i]
	}
	return name, v, nil
}

// TestPromHandler serves the fixture over HTTP and checks the content
// type and a spot sample — the /metrics endpoint contract.
func TestPromHandler(t *testing.T) {
	srv := httptest.NewServer(PromHandler(buildPromFixture()))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "gametree_nodes_total 1000") {
		t.Fatalf("handler output missing counters:\n%s", body)
	}

	// A nil recorder must still serve a complete, all-zero exposition.
	var nilRec *Recorder
	var nb strings.Builder
	if err := nilRec.WriteProm(&nb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(nb.String(), "gametree_nodes_total 0") {
		t.Fatal("nil recorder exposition incomplete")
	}
}
