package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"gametree/internal/engine"
	"gametree/internal/reqtrace"
	"gametree/internal/stats"
	"gametree/internal/telemetry"
)

// counters sums what the repo's own observers reported over the traced
// rounds of a run.
type counters struct {
	pools     telemetry.Counts // engine counters of every pool that searched
	loadSkew  float64          // of the last traced round
	serve     map[string]int64 // Server.Stats, summed
	shardTask telemetry.Counts // coordinator's ShardTasks / ShardReissues
	fenced    int64
	drops     int64
	stageMs   map[string][]float64 // reqtrace span durations by stage
}

func addCounts(a *telemetry.Counts, b telemetry.Counts) {
	a.Tasks += b.Tasks
	a.StealAttempts += b.StealAttempts
	a.Steals += b.Steals
	a.Splits += b.Splits
	a.Aborts += b.Aborts
	a.TTProbes += b.TTProbes
	a.TTHits += b.TTHits
	a.TTStores += b.TTStores
	a.TTEvictions += b.TTEvictions
	a.Nodes += b.Nodes
	a.ShardTasks += b.ShardTasks
	a.ShardReissues += b.ShardReissues
}

// collect reads e's public counters after a traced round, before close.
func (c *counters) collect(e *env) {
	recs := e.workerRecs
	if e.rec != nil {
		recs = append([]*telemetry.Recorder{e.rec}, recs...)
	}
	for _, rec := range recs {
		snap := rec.Snapshot()
		addCounts(&c.pools, snap.Total)
		if snap.Total.Tasks > 0 {
			c.loadSkew = snap.Report().LoadSkew
		}
	}
	if e.server != nil {
		if c.serve == nil {
			c.serve = map[string]int64{}
		}
		for k, v := range e.server.Stats() {
			c.serve[k] += v
		}
	}
	if e.coord != nil {
		addCounts(&c.shardTask, e.coordRec.Snapshot().Total)
		c.fenced += e.coord.FencedResults()
	}
	for _, n := range e.nets {
		c.drops += n.Stats().Dropped
	}
	if c.stageMs == nil {
		c.stageMs = map[string][]float64{}
	}
	for _, t := range e.tracers {
		spans, _ := t.Spans()
		for _, s := range spans {
			stage := s.Stage
			if stage == reqtrace.StageQueue && s.Proc != 0 {
				stage = "worker-queue" // the serve tier's queue stage shares the name
			}
			c.stageMs[stage] = append(c.stageMs[stage], float64(s.DurNs)/1e6)
		}
	}
}

// runtimeSample is a reading of the runtime/metrics the report uses.
type runtimeSample struct {
	allocObjects, allocBytes uint64
	gcCPU, totalCPU          float64
	pauses                   *metrics.Float64Histogram
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var r runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocObjects = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = s[3].Value.Float64()
	}
	if s[4].Value.Kind() == metrics.KindFloat64Histogram {
		r.pauses = s[4].Value.Float64Histogram()
	}
	return r
}

// pauseP95Ms is the 95th percentile of the GC pauses between two
// readings, from the runtime's cumulative histogram.
func pauseP95Ms(before, after runtimeSample) float64 {
	if before.pauses == nil || after.pauses == nil || len(before.pauses.Counts) != len(after.pauses.Counts) {
		return 0
	}
	var total uint64
	delta := make([]uint64, len(after.pauses.Counts))
	for i := range delta {
		delta[i] = after.pauses.Counts[i] - before.pauses.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	var seen uint64
	for i, d := range delta {
		seen += d
		if float64(seen) >= 0.95*float64(total) {
			return finite(after.pauses.Buckets[i+1]) * 1e3 // the bucket's upper edge
		}
	}
	return 0
}

// fresh reports whether the sample's node and expansion counts are work
// done for this op, not a cached or coalesced copy of another op's.
func fresh(sm sample) bool { return sm.ok && !sm.cached && !sm.coalesced }

func freshSum(r round, upto int, f func(sample) int64) int64 {
	var t int64
	for i, sm := range r.samples {
		if i < upto && fresh(sm) {
			t += f(sm)
		}
	}
	return t
}

// medianOver is the median over rounds of a count or a ratio of counts;
// unlike a timing, a count is not pushed one way by a busy host.
func medianOver(rounds []round, f func(round) float64) float64 {
	return median(perRound(rounds, f))
}

// prefixOpsPerSec is the round's throughput over its first n ops: correct
// answers among them per second until the last of them was verified. The
// narrow rounds run exactly this prefix, with the same history in every
// table and cache, so it is the wide number their rate is comparable to.
func prefixOpsPerSec(r round, n int) float64 {
	ok, last := 0, 0.0
	for _, sm := range r.samples[:min(n, len(r.samples))] {
		if sm.ok {
			ok++
			last = max(last, sm.doneMs)
		}
	}
	return ratio(float64(ok)*1e3, last)
}

func sampleNodes(sm sample) int64   { return sm.nodes }
func sampleExpands(sm sample) int64 { return sm.expands }

// memoBudget is the size of each memoized tree of the search-body timing.
func memoBudget(smoke bool) int {
	if smoke {
		return 2000
	}
	return 100000
}

// Shares of --seconds in a traced run; the rest goes to the layers step
// and, on the ring workload, the local baseline.
const (
	tracedWideShare   = 0.5
	tracedNarrowShare = 0.15
)

// runTraced is one --trace 1 run: pairs of wide rounds, one with the
// observers off and one with them on; narrow rounds; the ring's local
// baseline; and the layers step. It reports every per-layer metric and
// writes the last traced round's spans as a Chrome trace.
func runTraced(w workload, f runFlags) (runResult, error) {
	minPairs, minNarrow := 2, 2
	if f.smoke {
		minPairs, minNarrow = 1, 1
		f.seconds = 0
	}
	s, err := setUp(w, f.seed, f.smoke)
	if err != nil {
		return runResult{}, err
	}

	var plain, traced, narrow []round
	var c counters
	var rtAfter runtimeSample
	var rtDelta runtimeSample // summed over the plain rounds
	for start := time.Now(); len(plain) < minPairs || time.Since(start) < budget(f.seconds, tracedWideShare); {
		e, err := s.startEnv(s.wide())
		if err != nil {
			return runResult{}, err
		}
		rtBefore := readRuntime()
		plain = append(plain, s.runRound(e, s.ops, false))
		rtAfter = readRuntime()
		e.close()
		rtDelta.allocObjects += rtAfter.allocObjects - rtBefore.allocObjects
		rtDelta.allocBytes += rtAfter.allocBytes - rtBefore.allocBytes
		rtDelta.gcCPU += rtAfter.gcCPU - rtBefore.gcCPU
		rtDelta.totalCPU += rtAfter.totalCPU - rtBefore.totalCPU

		o := s.wide()
		o.traced = true
		if e, err = s.startEnv(o); err != nil {
			return runResult{}, err
		}
		traced = append(traced, s.runRound(e, s.ops, true))
		c.collect(e)
		e.close()
	}
	if narrow, err = s.roundsFor(s.narrow(), s.narrowOps(), budget(f.seconds, tracedNarrowShare), minNarrow); err != nil {
		return runResult{}, err
	}
	last := traced[len(traced)-1]
	if err := os.MkdirAll(f.out, 0o755); err != nil {
		return runResult{}, fmt.Errorf("trace directory: %w", err)
	}
	if err := writeTrace(filepath.Join(f.out, w.name+".trace.json"), w.name, last.origin, last.bufs); err != nil {
		return runResult{}, err
	}

	m, err := microLayers(f.seed, s.W, f.smoke)
	if err != nil {
		return runResult{}, err
	}
	okPlain, okTraced := okIn(plain), okIn(traced)
	if okPlain == 0 || okTraced == 0 {
		return runResult{}, fmt.Errorf("workload %s: no operation succeeded", w.name)
	}
	nNarrow := len(s.narrowOps())

	// engine: the search body, from the reference searches of set-up and
	// the node counts the replies carry.
	if s.refNodes == 0 {
		s.sampleSequential()
	}
	seqNs := ratio(float64(s.refNs), float64(s.refNodes))
	m.put("engine.seq_ns_per_node", seqNs)
	m.put("engine.search_self_ns_per_node", s.searchSelfNsPerNode(memoBudget(f.smoke)))
	m.put("engine.nodes_per_op", medianOver(plain, func(r round) float64 {
		return ratio(float64(freshSum(r, len(r.samples), sampleNodes)), float64(r.ok))
	}))
	nodesW1 := float64(freshSum(narrow[0], nNarrow, sampleNodes))
	m.put("engine.nodes_per_op_w1", nodesW1/float64(nNarrow))
	m.put("engine.search_overhead_x", medianOver(plain, func(r round) float64 {
		return ratio(float64(freshSum(r, nNarrow, sampleNodes)), nodesW1)
	}))
	m.put("engine.mnodes_per_sec", medianOver(plain, func(r round) float64 {
		return float64(freshSum(r, len(r.samples), sampleNodes)) / r.wall.Seconds() / 1e6
	}))

	// table and pool: the engine's own counters over the traced rounds.
	p := c.pools
	m.put("table.hit_share", ratio(float64(p.TTHits), float64(p.TTProbes)))
	m.put("table.evict_share", ratio(float64(p.TTEvictions), float64(p.TTStores)))
	wideOps, narrowOps := overRounds(plain, higher, round.opsPerSec), overRounds(narrow, higher, round.opsPerSec)
	scaling := ratio(overRounds(plain, higher, func(r round) float64 { return prefixOpsPerSec(r, nNarrow) }), narrowOps)
	m.put("pool.scaling_x", scaling)
	m.put("pool.splits_per_knode", ratio(float64(p.Splits)*1e3, float64(p.Nodes)))
	m.put("pool.steals_per_knode", ratio(float64(p.Steals)*1e3, float64(p.Nodes)))
	m.put("pool.steal_success_share", ratio(float64(p.Steals), float64(p.StealAttempts)))
	m.put("pool.aborted_task_share", ratio(float64(p.Aborts), float64(p.Tasks)))
	m.put("pool.load_skew", c.loadSkew)

	// pns: solves only; the replies carry the solver's counts.
	expandsW1 := float64(freshSum(narrow[0], nNarrow, sampleExpands))
	m.put("pns.expands_per_sec", medianOver(plain, func(r round) float64 {
		return float64(freshSum(r, len(r.samples), sampleExpands)) / r.wall.Seconds()
	}))
	m.put("pns.nodes_per_expand", medianOver(plain, func(r round) float64 {
		if w.kind != "solve" {
			return 0
		}
		return ratio(float64(freshSum(r, len(r.samples), sampleNodes)), float64(freshSum(r, len(r.samples), sampleExpands)))
	}))
	m.put("pns.expands_per_op_w1", expandsW1/float64(nNarrow))
	m.put("pns.search_overhead_x", medianOver(plain, func(r round) float64 {
		return ratio(float64(freshSum(r, nNarrow, sampleExpands)), expandsW1)
	}))
	if w.kind != "solve" {
		scaling = 0
	}
	m.put("pns.scaling_x", scaling)

	// serve: what the replies and Server.Stats say about the request path.
	var queue, missOverhead, all []float64
	var cached, coalesced int
	for _, r := range traced {
		for _, sm := range r.samples {
			if !sm.ok || w.kind == "lib" {
				continue
			}
			if sm.cached {
				cached++
			}
			if sm.coalesced {
				coalesced++
			}
			if fresh(sm) {
				queue = append(queue, sm.queueMs)
				// elapsed_ms is the server's whole handling of the
				// request, queue wait included.
				missOverhead = append(missOverhead, (sm.latMs-sm.elapsedMs)*1e3)
			}
		}
	}
	for _, r := range plain {
		all = append(all, r.latencies()...)
	}
	m.put("serve.miss_overhead_us", median(missOverhead))
	m.put("serve.queue_wait_ms_p50", stats.Quantile(queue, 0.50))
	m.put("serve.queue_wait_ms_p95", stats.Quantile(queue, 0.95))
	m.put("serve.cache_hit_share", float64(cached)/float64(okTraced))
	m.put("serve.coalesced_share", float64(coalesced)/float64(okTraced))
	m.put("serve.shed_share", ratio(float64(c.serve["rejected_queue"]), float64(c.serve["requests"])))
	p99 := 0.0
	if w.kind != "lib" {
		p99 = stats.Quantile(all, 0.99)
	}
	m.put("serve.latency_p99_ms", p99)

	// shard and transport: the coordinator's counters, the stage spans of
	// the request tracers, and two extra rounds on the ring workload.
	tasks := float64(c.shardTask.ShardTasks)
	m.put("shard.tasks_per_req", tasks/float64(okTraced))
	m.put("shard.reissue_share", ratio(float64(c.shardTask.ShardReissues), tasks))
	m.put("shard.fenced_share", ratio(float64(c.fenced), tasks))
	for metric, stage := range map[string]string{
		"shard.stage_expand_ms_p50":       reqtrace.StageExpand,
		"shard.stage_rpc_ms_p50":          reqtrace.StageRPC,
		"shard.stage_worker_queue_ms_p50": "worker-queue",
		"shard.stage_compute_ms_p50":      reqtrace.StageCompute,
		"shard.stage_fold_ms_p50":         reqtrace.StageFold,
	} {
		v := 0.0
		if w.kind == "ring" {
			v = median(c.stageMs[stage])
		}
		m.put(metric, v)
	}
	m.put("transport.drops", float64(c.drops))
	added, direct := 0.0, 0.0
	var local []round
	if w.kind == "ring" {
		o := s.wide()
		o.localRing = true
		if local, err = s.roundsFor(o, s.ops, 0, 1); err != nil {
			return runResult{}, err
		}
		added = overRounds(plain, lower, round.p50) - local[0].p50()
		if direct, err = s.coordinatorDirect(); err != nil {
			return runResult{}, err
		}
	}
	m.put("shard.added_latency_ms", added)
	m.put("shard.coord_search_ms_p50", direct)

	// observers and runtime.
	tracedOps := overRounds(traced, higher, round.opsPerSec)
	m.put("telemetry.overhead_share", 1-ratio(tracedOps, wideOps))
	m.put("runtime.gc_cpu_share", ratio(rtDelta.gcCPU, rtDelta.totalCPU))
	m.put("runtime.gc_pause_ms_p95", pauseP95Ms(runtimeSample{pauses: startPauses}, rtAfter))
	m.put("runtime.allocs_per_op", float64(rtDelta.allocObjects)/float64(okPlain))
	m.put("runtime.alloc_bytes_per_op", float64(rtDelta.allocBytes)/float64(okPlain))
	self := map[string]time.Duration{}
	for _, r := range traced {
		for name, d := range selfTimes(r.bufs) {
			self[name] += d
		}
	}
	client := self["op"] + self["encode"] + self["decode"] + self["verify"]
	m.put("bench.client_overhead_us", float64(client.Nanoseconds())/1e3/float64(okTraced))

	printBudget(w, last)
	fmt.Fprintf(os.Stderr, "bench: %s seed %d: closed loop, W=%d workers, %d callers; %d plain + %d traced + %d narrow rounds; traced %.0f op/s against %.0f plain\n",
		w.name, f.seed, s.W, s.wide().callers, len(plain), len(traced), len(narrow), tracedOps, wideOps)
	attempted, failed := tally(plain, traced, narrow, local)
	return runResult{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// startPauses is the GC pause histogram when the process began measuring;
// pauses are rare enough that the report takes them over the whole run.
var startPauses = readRuntime().pauses

// printBudget prints where a median op of the traced round spent its
// time: compute (the search itself), queue (waiting for a pool) and
// overhead (everything else: HTTP, JSON, the ring, the harness).
func printBudget(w workload, r round) {
	var lat, compute, queue []float64
	for _, sm := range r.samples {
		if !sm.ok {
			continue
		}
		lat = append(lat, sm.latMs)
		if w.kind == "lib" {
			compute = append(compute, sm.latMs)
			queue = append(queue, 0)
			continue
		}
		c := sm.elapsedMs - sm.queueMs
		if !fresh(sm) {
			c = 0 // answered from the cache or another request's search
		}
		compute = append(compute, c)
		queue = append(queue, sm.queueMs)
	}
	l, c, q := median(lat), median(compute), median(queue)
	fmt.Fprintf(os.Stderr, "bench: %s budget of the median traced op (%.3f ms): compute %.0f%%, queue %.0f%%, overhead %.0f%%\n",
		w.name, l, 100*ratio(c, l), 100*ratio(q, l), 100*ratio(l-c-q, l))
}

// sampleSequential times engine.Search on a workload whose answers came
// from theory, not from reference searches (the solves): a few positions,
// depth-limited, for the sequential ns-per-node of their games.
func (s *suite) sampleSequential() {
	for _, pos := range s.positions[:min(len(s.positions), 24)] {
		t0 := time.Now()
		res := engine.Search(pos, 5)
		s.refNs += time.Since(t0).Nanoseconds()
		s.refNodes += res.Nodes
	}
}

// memoPos is a position whose successors and value were computed
// beforehand: searching a tree of them costs the search body and nothing
// of the game.
type memoPos struct {
	kids []engine.Position
	val  int32
}

func (p *memoPos) Moves() []engine.Position { return p.kids }
func (p *memoPos) Evaluate() int32          { return p.val }

// memoize copies the game tree under root, level by level, until it holds
// about budget positions, and returns the copy with the number of levels
// that were expanded.
func memoize(root engine.Position, budget int) (*memoPos, int) {
	type pair struct {
		pos  engine.Position
		memo *memoPos
	}
	top := &memoPos{val: root.Evaluate()}
	level, total, depth := []pair{{root, top}}, 1, 0
	for len(level) > 0 && total < budget {
		var next []pair
		for _, n := range level {
			for _, k := range n.pos.Moves() {
				m := &memoPos{val: k.Evaluate()}
				n.memo.kids = append(n.memo.kids, m)
				next = append(next, pair{k, m})
			}
		}
		total += len(next)
		level = next
		depth++
	}
	return top, depth
}

// searchSelfNsPerNode times engine.Search on memoized copies of a few of
// the workload's trees: the search body's own time per node, with move
// generation and evaluation taken out by construction.
func (s *suite) searchSelfNsPerNode(budget int) float64 {
	var ns float64
	var nodes int64
	for _, pos := range s.positions[:min(len(s.positions), 4)] {
		root, depth := memoize(pos, budget)
		ns += perCall(1, func() { nodes += engine.Search(root, depth).Nodes })
	}
	return ratio(ns, float64(nodes)/batches)
}

// coordinatorDirect calls Coordinator.Search without serve or HTTP in
// front, one caller, and returns the median latency in ms.
func (s *suite) coordinatorDirect() (float64, error) {
	e, err := s.startRing(s.wide())
	if err != nil {
		return 0, err
	}
	defer e.close()
	var lat []float64
	for _, o := range s.ops[:min(len(s.ops), 100)] {
		t0 := time.Now()
		res, err := e.coord.Search(context.Background(), o.Game, o.Pos, o.Depth)
		if err != nil {
			return 0, fmt.Errorf("coordinator search: %w", err)
		}
		if !s.check(o, reply{value: res.Value}) {
			return 0, fmt.Errorf("coordinator search: wrong value %d for %s %q", res.Value, o.Game, o.Pos)
		}
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(lat), nil
}
