package shard

// Request-trace propagation through the tier: the trace ID minted at
// the serving layer must survive the wire, task reissue, and the
// worker's result dedup — and every hop must leave a span behind.

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"gametree/internal/reqtrace"
)

// findSpans returns the tracer's spans matching trace and stage.
func findSpans(t *reqtrace.Tracer, trace, stage string) []reqtrace.Span {
	spans, _ := t.Spans()
	var out []reqtrace.Span
	for _, s := range spans {
		if s.Trace == trace && s.Stage == stage {
			out = append(out, s)
		}
	}
	return out
}

// TestShardTraceSpans drives one traced search end to end and checks
// the per-stage account: expand and fold once each on the coordinator,
// one route span per dispatch wave (the eldest, then its brothers), one
// rpc span per task, and worker queue+compute spans covering every task
// — all carrying the one trace ID.
func TestShardTraceSpans(t *testing.T) {
	cl := newCluster(t, 2)
	const trace = "tr-e2e"
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ctx = reqtrace.NewContext(ctx, trace)

	want := reference(t, "random", "42:6", 4)
	got, err := cl.coord.Search(ctx, "random", "42:6", 4)
	if err != nil {
		t.Fatalf("traced search: %v", err)
	}
	if got.Value != want.Value || got.Best != want.Best {
		t.Fatalf("traced search diverged: got (v=%d best=%d) want (v=%d best=%d)",
			got.Value, got.Best, want.Value, want.Best)
	}

	for _, stage := range []string{reqtrace.StageExpand, reqtrace.StageFold} {
		if n := len(findSpans(cl.coordTracer, trace, stage)); n != 1 {
			t.Errorf("coordinator %s spans: got %d, want 1", stage, n)
		}
	}
	if n := len(findSpans(cl.coordTracer, trace, reqtrace.StageRoute)); n != 2 {
		t.Errorf("coordinator route spans: got %d, want 2 (eldest, then brothers)", n)
	}
	rpcs := findSpans(cl.coordTracer, trace, reqtrace.StageRPC)
	if len(rpcs) != 6 { // "42:6" has 6 root children at expand depth 1
		t.Errorf("rpc spans: got %d, want 6", len(rpcs))
	}
	for _, s := range rpcs {
		if s.Worker == 0 || s.Task == 0 {
			t.Errorf("rpc span missing worker/task: %+v", s)
		}
	}
	// The compute span is recorded as the worker's runTask unwinds, which
	// can trail the result delivery; poll briefly.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var computes, queues int
		for _, wt := range cl.workTracers {
			computes += len(findSpans(wt, trace, reqtrace.StageCompute))
			queues += len(findSpans(wt, trace, reqtrace.StageQueue))
		}
		if computes == 6 && queues == 6 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker spans: computes=%d queues=%d, want 6 each", computes, queues)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// An untraced search must add nothing.
	before := spanCount(cl.coordTracer)
	if _, err := cl.coord.Search(context.Background(), "random", "43:4", 3); err != nil {
		t.Fatalf("untraced search: %v", err)
	}
	if after := spanCount(cl.coordTracer); after != before {
		t.Errorf("untraced search recorded %d spans", after-before)
	}
}

func spanCount(tr *reqtrace.Tracer) int {
	spans, _ := tr.Spans()
	return len(spans)
}

// TestShardTraceReissueAndDoneCache plants a stale pending task and lets
// the reissue machinery resend it: the resent envelope must carry the
// ORIGINAL trace ID (the worker's compute span proves it crossed the
// wire), and a second reissue after completion must be answered from the
// worker's done-cache with a span stamping the dedup.
func TestShardTraceReissueAndDoneCache(t *testing.T) {
	cl := newCluster(t, 2)
	const trace = "tr-reissue"
	stale := time.Now().Add(-time.Second)
	env := &Envelope{Kind: KindTask, ID: 424242, Game: "random", Pos: "3:3", Depth: 2, Trace: trace}
	p := &pendingTask{
		env: env, key: "random|3:3", to: 1,
		first: stale,
		done:  make(chan struct{}),
	}
	cl.coord.mu.Lock()
	cl.coord.proto.pending[env.ID] = p
	cl.coord.mu.Unlock()

	cl.coord.step((*protocol).tick)

	reissues := findSpans(cl.coordTracer, trace, reqtrace.StageReissue)
	if len(reissues) != 1 {
		t.Fatalf("reissue spans: got %d, want 1", len(reissues))
	}
	if reissues[0].Task != env.ID {
		t.Errorf("reissue span task: got %d, want %d", reissues[0].Task, env.ID)
	}

	// The worker that received the reissued copy computes it under the
	// original trace and answers; the coordinator settles the flight.
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		t.Fatal("reissued task never completed")
	}
	computedBy := -1
	computeDeadline := time.Now().Add(10 * time.Second)
	for computedBy < 0 {
		for i, wt := range cl.workTracers {
			if n := len(findSpans(wt, trace, reqtrace.StageCompute)); n == 1 {
				computedBy = i
			}
		}
		if computedBy < 0 {
			if time.Now().After(computeDeadline) {
				t.Fatal("no worker recorded a compute span with the original trace ID")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Deliver the same task again: the worker's done-cache must answer
	// without recomputing and stamp the span as a replay.
	cl.workers[computedBy].acceptTask(env)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if spans := findSpans(cl.workTracers[computedBy], trace, reqtrace.StageDoneCache); len(spans) == 1 {
			if spans[0].Note != "replayed" {
				t.Errorf("done-cache span note: got %q, want \"replayed\"", spans[0].Note)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("done-cache span never recorded")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if n := len(findSpans(cl.workTracers[computedBy], trace, reqtrace.StageCompute)); n != 1 {
		t.Errorf("duplicate was recomputed: %d compute spans", n)
	}
}

// TestShardClockOffsets waits for the hello→pong echo cycle to produce
// offset estimates for every worker; same-host clocks must come out
// within a loose bound and the estimates must ride the trace dump.
func TestShardClockOffsets(t *testing.T) {
	cl := newCluster(t, 2)
	deadline := time.Now().Add(10 * time.Second)
	var offs map[int]reqtrace.Offset
	for {
		offs = cl.coord.ClockOffsets()
		if len(offs) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("offset estimates incomplete after 10s: %v", offs)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for p, o := range offs {
		if o.RTTNs < 0 || o.RTTNs > time.Second.Nanoseconds() {
			t.Errorf("proc %d: implausible RTT %dns", p, o.RTTNs)
		}
		if o.OffsetNs > time.Second.Nanoseconds() || o.OffsetNs < -time.Second.Nanoseconds() {
			t.Errorf("proc %d: implausible same-host offset %dns", p, o.OffsetNs)
		}
	}
	d := cl.coordTracer.DumpState()
	if len(d.Offsets) != 2 {
		t.Errorf("dump offsets: got %d, want 2", len(d.Offsets))
	}
}

// TestShardPromSections checks the ring/liveness/recovery gauges both
// roles contribute to /metrics, and the coordinator's count of searches
// by where they fanned out.
func TestShardPromSections(t *testing.T) {
	cl := newCluster(t, 2)
	// A lone search on the idle two-worker ring fans out over it.
	if _, err := cl.coord.Search(context.Background(), "ttt", "", 3); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cl.coord.PromSection()(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"gametree_shard_ring_size 2",
		`gametree_shard_ring_member{proc="1"} 1`,
		`gametree_shard_worker_alive{proc="1"} 1`,
		`gametree_shard_worker_alive{proc="2"} 1`,
		"gametree_shard_worker_deaths_total 0",
		"gametree_shard_recovering 0",
		"gametree_shard_recovery_last_ns 0",
		"# TYPE gametree_shard_requests_total counter\n" +
			"gametree_shard_requests_total{fanout=\"ring\"} 1\n" +
			"gametree_shard_requests_total{fanout=\"worker\"} 0\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("coordinator section missing %q in:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := cl.workers[0].PromSection()(&buf); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	for _, want := range []string{
		"gametree_shard_ring_size 2",
		"gametree_shard_self_proc 1",
		"# TYPE gametree_memory_bytes gauge\ngametree_memory_bytes{owner=\"table\"} ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("worker section missing %q in:\n%s", want, out)
		}
	}
}

// TestRecoveryTracker exercises the death→p99-settled state machine
// directly: a death starts the clock, fast completions close it, and a
// second death during recovery does not restart the original epoch.
func TestRecoveryTracker(t *testing.T) {
	r := recoveryTracker{threshold: int64(time.Millisecond)}
	base := time.Unix(1000, 0).UnixNano()
	r.noteDeath(base)
	if r.deathNs != base || r.deaths != 1 {
		t.Fatalf("after death: deathNs=%d deaths=%d", r.deathNs, r.deaths)
	}
	// A second death mid-recovery keeps the original epoch.
	r.noteDeath(base + 10)
	if r.deathNs != base || r.deaths != 2 {
		t.Fatalf("second death reset the epoch: deathNs=%d deaths=%d", r.deathNs, r.deaths)
	}
	// Slow completions must not close recovery.
	for i := 0; i < recoveryMinSamples+4; i++ {
		r.observe(int64(10*time.Millisecond), base+int64(i))
	}
	if r.deathNs == 0 {
		t.Fatal("recovery declared while p99 above threshold")
	}
	// A run of fast completions brings the windowed p99 under threshold.
	end := base + int64(time.Second)
	for i := 0; i < 64; i++ {
		r.observe(int64(100*time.Microsecond), end)
	}
	if r.deathNs != 0 {
		t.Fatalf("recovery never declared: p99=%d threshold=%d", r.p99(), r.threshold)
	}
	if r.lastNs != end-base {
		t.Errorf("recovery duration: got %d, want %d", r.lastNs, end-base)
	}
}
