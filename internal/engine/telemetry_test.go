package engine

import (
	"context"
	"encoding/json"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"gametree/internal/telemetry"
	"gametree/internal/tree"
)

// TestTelemetrySingleWorkerExact pins the counter semantics where they
// are deterministic: with one worker there is no one to steal from or be
// pre-empted by asynchronously, so the counters must be exact — zero
// steals, node parity with the sequential search, and the split/task
// accounting identity.
func TestTelemetrySingleWorkerExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		depth := 4 + rng.Intn(3)
		p := Arena(RandomArena(rng.Int63(), depth, 4))
		seq := Search(p, depth)

		rec := telemetry.NewRecorder()
		r, err := SearchOpt(context.Background(), p, depth,
			SearchOptions{Workers: 1, Telemetry: rec})
		if err != nil {
			t.Fatal(err)
		}
		c := rec.Snapshot().Total

		if c.Steals != 0 || c.StealAttempts != 0 {
			t.Fatalf("trial %d: single worker recorded %d steals / %d attempts",
				trial, c.Steals, c.StealAttempts)
		}
		if c.Nodes != r.Nodes || r.Nodes != seq.Nodes {
			t.Fatalf("trial %d: telemetry nodes %d, result %d, sequential %d",
				trial, c.Nodes, r.Nodes, seq.Nodes)
		}
		// Every split's sibling tasks complete exactly once: as a run
		// (Tasks), as a skip (Aborts), or as a run that was then
		// pre-empted (both). Hence Tasks <= total siblings <= Tasks+Aborts.
		// The per-split sibling counts aren't observable here, but each
		// split schedules at least one sibling, so Splits is a lower bound.
		if c.Tasks+c.Aborts < c.Splits {
			t.Fatalf("trial %d: %d tasks + %d aborts < %d splits",
				trial, c.Tasks, c.Aborts, c.Splits)
		}
		if depth > splitHorizon && c.Splits == 0 {
			t.Fatalf("trial %d: depth %d search opened no splits", trial, depth)
		}

		// Single-worker runs are deterministic: a second run must
		// reproduce every counter bit-for-bit. AbortDrainNs is the one
		// wall-clock field — nested YBWC cutoffs fire even at one worker,
		// and their drain latency is time, not structure — so it is
		// excluded from the comparison.
		rec2 := telemetry.NewRecorder()
		if _, err := SearchOpt(context.Background(), p, depth,
			SearchOptions{Workers: 1, Telemetry: rec2}); err != nil {
			t.Fatal(err)
		}
		c2 := rec2.Snapshot().Total
		cc, cc2 := c, c2
		cc.AbortDrainNs, cc2.AbortDrainNs = 0, 0
		if cc2 != cc {
			t.Fatalf("trial %d: single-worker counters not deterministic:\n%+v\n%+v", trial, c, c2)
		}
	}
}

// TestTelemetryPessimalTreeAccounting uses the worst-ordered M(4,6) at
// one worker, where scheduling is deterministic and every node is
// uniform: each split queues branch-1 siblings, each of them is run or
// skipped exactly once, and — a split only opens on a drained deque — at
// most one split's worth of tasks is ever queued. (Which splits open is
// pinned by TestYBWCNestedAccounting.)
func TestTelemetryPessimalTreeAccounting(t *testing.T) {
	const depth, branch = 6, 4
	rec := telemetry.NewRecorder()
	if _, err := SearchOpt(context.Background(), Arena(tree.WorstOrderedMinMax(branch, depth, 1)), depth,
		SearchOptions{Workers: 1, Telemetry: rec}); err != nil {
		t.Fatal(err)
	}
	c := rec.Snapshot().Total
	if c.Splits < depth-splitHorizon {
		t.Fatalf("splits %d, want at least %d (the spine above the horizon)", c.Splits, depth-splitHorizon)
	}
	siblings := c.Splits * (branch - 1)
	if c.Tasks > siblings || c.Tasks+c.Aborts < siblings {
		t.Fatalf("task accounting: %d tasks, %d aborts, %d siblings scheduled",
			c.Tasks, c.Aborts, siblings)
	}
	if c.DequeMax < 1 || c.DequeMax > branch-1 {
		t.Fatalf("deque high-water %d outside [1, %d]", c.DequeMax, branch-1)
	}
}

// TestTelemetryTTCounters: the table-backed search must report probe,
// hit, store and eviction traffic, and the counters must be consistent
// with each other (hits never exceed probes, evictions never exceed
// stores).
func TestTelemetryTTCounters(t *testing.T) {
	pos := Keyed(tree.IIDMinMax(3, 7, -100, 100, 32), 0)
	rec := telemetry.NewRecorder()
	table := NewTable(1 << 4) // tiny, to force evictions
	if _, err := SearchOpt(context.Background(), pos, 7,
		SearchOptions{Table: table, Workers: 2, Telemetry: rec}); err != nil {
		t.Fatal(err)
	}
	c := rec.Snapshot().Total
	if c.TTProbes == 0 || c.TTStores == 0 {
		t.Fatalf("no TT traffic recorded: %+v", c)
	}
	if c.TTHits > c.TTProbes {
		t.Fatalf("hits %d exceed probes %d", c.TTHits, c.TTProbes)
	}
	if c.TTEvictions > c.TTStores {
		t.Fatalf("evictions %d exceed stores %d", c.TTEvictions, c.TTStores)
	}
	if c.TTEvictions == 0 {
		t.Fatalf("tiny table saw no evictions (stores %d)", c.TTStores)
	}

	// The sequential table search shares the same counters.
	rec2 := telemetry.NewRecorder()
	if _, err := SearchOpt(context.Background(), pos, 5, SearchOptions{Table: NewTable(1 << 8), Telemetry: rec2, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if c2 := rec2.Snapshot().Total; c2.TTProbes == 0 || c2.Nodes == 0 {
		t.Fatalf("sequential TT search recorded nothing: %+v", c2)
	}
}

// TestTelemetrySnapshotDuringSearch snapshots a live instrumented search
// from another goroutine. Under -race this is the satellite guarantee
// that mid-run Snapshot is safe; the monotonicity check catches torn or
// regressing reads.
func TestTelemetrySnapshotDuringSearch(t *testing.T) {
	p := Arena(RandomArena(33, 8, 3))
	rec := telemetry.NewRecorder()
	var done atomic.Bool
	snaps := make(chan telemetry.Snapshot, 1)
	go func() {
		var lastTasks, lastNodes int64
		var last telemetry.Snapshot
		for !done.Load() {
			s := rec.Snapshot()
			if s.Total.Tasks < lastTasks || s.Total.Nodes < lastNodes {
				t.Errorf("counters regressed: tasks %d->%d nodes %d->%d",
					lastTasks, s.Total.Tasks, lastNodes, s.Total.Nodes)
				break
			}
			lastTasks, lastNodes = s.Total.Tasks, s.Total.Nodes
			last = s
			runtime.Gosched()
		}
		snaps <- last
	}()
	r, err := SearchOpt(context.Background(), p, 8,
		SearchOptions{Workers: 4, Telemetry: rec})
	if err != nil {
		t.Fatal(err)
	}
	done.Store(true)
	<-snaps
	final := rec.Snapshot().Total
	if final.Nodes != r.Nodes {
		t.Fatalf("quiesced telemetry nodes %d != result nodes %d", final.Nodes, r.Nodes)
	}
	if got := len(rec.Snapshot().PerWorker); got != 4 {
		t.Fatalf("shard count %d, want 4", got)
	}
}

// TestTelemetryTracingSpans: with tracing enabled, every joined split
// must leave a well-formed span (ordered timestamps, a real task count).
func TestTelemetryTracingSpans(t *testing.T) {
	rec := telemetry.NewRecorder()
	rec.EnableTrace(0)
	if _, err := SearchOpt(context.Background(), Arena(tree.WorstOrderedMinMax(4, 6, 1)), 6,
		SearchOptions{Workers: 2, Telemetry: rec}); err != nil {
		t.Fatal(err)
	}
	spans, dropped := rec.Spans()
	if dropped != 0 {
		t.Fatalf("%d spans dropped below the default cap", dropped)
	}
	c := rec.Snapshot().Total
	if int64(len(spans)) != c.Splits {
		t.Fatalf("%d spans for %d splits", len(spans), c.Splits)
	}
	for i, s := range spans {
		if s.Start > s.Join || s.Join > s.End {
			t.Fatalf("span %d not ordered: %+v", i, s)
		}
		if s.Tasks < 1 || s.Name != "split" {
			t.Fatalf("span %d malformed: %+v", i, s)
		}
	}
}

// TestTelemetryNilRecorderSearch: the uninstrumented path must stay
// identical in value and node count to the instrumented one.
func TestTelemetryNilRecorderSearch(t *testing.T) {
	p := Arena(RandomArena(34, 6, 4))
	plain, err := SearchOpt(context.Background(), p, 6, SearchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewRecorder()
	inst, err := SearchOpt(context.Background(), p, 6,
		SearchOptions{Workers: 2, Telemetry: rec})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Value != inst.Value {
		t.Fatalf("instrumentation changed the value: %d vs %d", plain.Value, inst.Value)
	}
}

// TestTelemetryHistograms: an instrumented pooled search must populate
// the per-family histograms consistently with its counters — every
// executed task has a run-time sample, every abort drain a latency
// sample, every split a deque-depth sample, every TT probe a depth
// sample — and the quantiles must be ordered.
func TestTelemetryHistograms(t *testing.T) {
	rec := telemetry.NewRecorder()
	if _, err := SearchOpt(context.Background(), Arena(tree.WorstOrderedMinMax(4, 8, 1)), 8,
		SearchOptions{Workers: 4, Telemetry: rec}); err != nil {
		t.Fatal(err)
	}
	s := rec.Snapshot()
	c := s.Total

	if run := s.Hist[telemetry.HistTaskRunNs]; run.Count != c.Tasks {
		t.Fatalf("task run samples %d != tasks %d", run.Count, c.Tasks)
	}
	if drain := s.Hist[telemetry.HistAbortDrainNs]; drain.Count != c.AbortDrains {
		t.Fatalf("drain samples %d != abort drains %d", drain.Count, c.AbortDrains)
	}
	if dq := s.Hist[telemetry.HistDequeDepth]; dq.Count != c.Splits {
		t.Fatalf("deque samples %d != splits %d", dq.Count, c.Splits)
	} else if dq.Max != c.DequeMax {
		t.Fatalf("deque histogram max %d != high-water counter %d", dq.Max, c.DequeMax)
	}
	if sr := s.Hist[telemetry.HistStealRetries]; sr.Count != c.StealAttempts {
		t.Fatalf("steal-retry samples %d != steal attempts %d", sr.Count, c.StealAttempts)
	}

	rep := s.Report()
	if c.AbortDrains > 0 {
		if !(rep.AbortDrainP50Us > 0 && rep.AbortDrainP50Us <= rep.AbortDrainP95Us &&
			rep.AbortDrainP95Us <= rep.AbortDrainP99Us && rep.AbortDrainP99Us <= rep.AbortDrainMaxUs) {
			t.Fatalf("drain quantiles disordered: %+v", rep)
		}
	}
	if c.Tasks > 0 && !(rep.TaskRunP50Us > 0 && rep.TaskRunP50Us <= rep.TaskRunP99Us) {
		t.Fatalf("task run quantiles disordered: p50=%v p99=%v", rep.TaskRunP50Us, rep.TaskRunP99Us)
	}

	// TT probe depth: table-backed search on a tree keyed at every node.
	pos := Keyed(tree.IIDMinMax(3, 6, -100, 100, 35), 0)
	ttRec := telemetry.NewRecorder()
	if _, err := SearchOpt(context.Background(), pos, 6,
		SearchOptions{Table: NewTable(1 << 10), Workers: 2, Telemetry: ttRec}); err != nil {
		t.Fatal(err)
	}
	ts := ttRec.Snapshot()
	if pd := ts.Hist[telemetry.HistTTProbeDepth]; pd.Count != ts.Total.TTProbes {
		t.Fatalf("probe-depth samples %d != probes %d", pd.Count, ts.Total.TTProbes)
	} else if pd.Max > 6 || pd.Max < 1 {
		t.Fatalf("probe depth max %d outside the search depth range", pd.Max)
	}
}

// TestTelemetryEventLog: with the event log on, the scheduler events must
// reconcile with the counters (splits = split-open events, steals = steal
// events) and replay cleanly through the JSONL round trip.
func TestTelemetryEventLog(t *testing.T) {
	rec := telemetry.NewRecorder()
	rec.EnableEvents(0)
	if _, err := SearchOpt(context.Background(), Arena(tree.WorstOrderedMinMax(4, 7, 1)), 7,
		SearchOptions{Workers: 4, Telemetry: rec}); err != nil {
		t.Fatal(err)
	}
	events, dropped := rec.Events()
	if dropped != 0 {
		t.Fatalf("%d events dropped below the default cap", dropped)
	}
	c := rec.Snapshot().Total
	kinds := map[string]int64{}
	for i, e := range events {
		kinds[e.Kind]++
		if e.Ns < 0 || e.Worker < 0 || e.Worker >= 4 {
			t.Fatalf("event %d malformed: %+v", i, e)
		}
	}
	if kinds[telemetry.EventSplitOpen] != c.Splits {
		t.Fatalf("%d split-open events for %d splits", kinds[telemetry.EventSplitOpen], c.Splits)
	}
	if kinds[telemetry.EventJoin] != c.Splits {
		t.Fatalf("%d join events for %d splits", kinds[telemetry.EventJoin], c.Splits)
	}
	if kinds[telemetry.EventSteal] != c.Steals {
		t.Fatalf("%d steal events for %d steals", kinds[telemetry.EventSteal], c.Steals)
	}
	if kinds[telemetry.EventAbort] != c.Aborts {
		t.Fatalf("%d abort events for %d aborts", kinds[telemetry.EventAbort], c.Aborts)
	}

	// JSONL round trip and Chrome replay must both accept the log.
	var jsonl strings.Builder
	if err := rec.WriteEvents(&jsonl); err != nil {
		t.Fatal(err)
	}
	back, err := telemetry.ReadEvents(strings.NewReader(jsonl.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(events) {
		t.Fatalf("round trip lost events: %d vs %d", len(back), len(events))
	}
	var trace strings.Builder
	if err := telemetry.WriteEventTrace(&trace, back); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(trace.String()), &doc); err != nil {
		t.Fatalf("event trace is not valid JSON: %v", err)
	}
	if evs, ok := doc["traceEvents"].([]any); !ok || len(evs) != len(events) {
		t.Fatalf("event trace has %v entries for %d events", doc["traceEvents"], len(events))
	}
}

// scoredPos is a keyed arena node whose interior nodes carry a static
// score too, a hash of the node, so a table search really reorders their
// children; a leaf scores as in the arena.
type scoredPos struct{ KeyedPos }

func (p scoredPos) Children(dst []scoredPos) []scoredPos {
	n := p.T.Node(p.ID)
	for i := int32(0); i < n.NumChildren; i++ {
		dst = append(dst, scoredPos{KeyedPos{tree.Pos{T: p.T, ID: n.FirstChild + tree.NodeID(i)}, p.Salt}})
	}
	return dst
}

func (p scoredPos) Evaluate() int32 {
	if p.T.Node(p.ID).NumChildren == 0 {
		return p.KeyedPos.Evaluate()
	}
	h, _ := p.Key()
	return int32(h%201) - 100
}

// orderCounts are the ordering counters of TestTelemetryOrderingExact.
type orderCounts struct{ nodes, cuts, eldest, evals int64 }

// orderedRef is textbook fail-soft negamax with the table search's child
// order: above the split horizon the children go in ascending order of
// their Evaluate, ties left to right. It counts what the telemetry
// counts on a tree whose nodes each occur once, where one search's table
// never answers a probe.
func orderedRef(p scoredPos, depth int, alpha, beta int64, c *orderCounts) int64 {
	c.nodes++
	kids := p.Children(nil)
	if depth == 0 || len(kids) == 0 {
		return int64(p.Evaluate())
	}
	order := make([]int, len(kids))
	for i := range order {
		order[i] = i
	}
	above := depth > splitHorizon
	if above {
		c.evals += int64(len(kids))
		sort.SliceStable(order, func(a, b int) bool { return kids[order[a]].Evaluate() < kids[order[b]].Evaluate() })
	}
	best, bestIdx := -scoreInf, -1
	for _, i := range order {
		if v := -orderedRef(kids[i], depth-1, -beta, -alpha, c); v > best {
			best, bestIdx = v, i
		}
		alpha = max(alpha, best)
		if alpha >= beta {
			break
		}
	}
	if above && best >= beta {
		c.cuts++
		if bestIdx == order[0] {
			c.eldest++
		}
	}
	return best
}

// TestTelemetryOrderingExact pins the ordering counters at one worker,
// where they repeat exactly, against the reference: table nodes cut, cuts
// by the eldest child, and evaluations spent on ordering, with the nodes
// and value of the ordered search. The same search without a table
// orders nothing and counts none of them.
func TestTelemetryOrderingExact(t *testing.T) {
	var total orderCounts
	for seed := int64(1); seed <= 6; seed++ {
		depth := 5 + int(seed)%3
		root := scoredPos{KeyedPos{tree.Pos{T: RandomArena(seed, depth, 4)}, 0}}
		var want orderCounts
		v := orderedRef(root, depth, -scoreInf, scoreInf, &want)

		for _, table := range []*Table{NewTable(1 << 16), nil} {
			rec := telemetry.NewRecorder()
			r, err := SearchOpt(context.Background(), NewNode(root), depth,
				SearchOptions{Workers: 1, Table: table, Telemetry: rec})
			if err != nil {
				t.Fatal(err)
			}
			c := rec.Snapshot().Total
			got := orderCounts{r.Nodes, c.TableCuts, c.EldestCuts, c.OrderEvals}
			if table == nil {
				if got.cuts != 0 || got.eldest != 0 || got.evals != 0 {
					t.Errorf("seed %d, no table: counted %+v", seed, got)
				}
				continue
			}
			if int64(r.Value) != v || got != want || c.Nodes != r.Nodes {
				t.Errorf("seed %d depth %d: value %d, counts %+v (telemetry nodes %d); reference value %d, counts %+v",
					seed, depth, r.Value, got, c.Nodes, v, want)
			}
			total.cuts += want.cuts
			total.eldest += want.eldest
			total.evals += want.evals
		}
	}
	if total.cuts == 0 || total.eldest == 0 || total.eldest == total.cuts || total.evals == 0 {
		t.Errorf("the reference counts %+v leave a counter untested", total)
	}
}
