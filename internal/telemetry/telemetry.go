// Package telemetry is the low-overhead metrics and span-tracing layer of
// the search subsystems. It exists because end-state numbers (nodes/sec,
// total messages) cannot falsify claims about *how* a parallel search ran:
// steal rates, per-worker load skew, abort-to-drain latency and
// transposition-table behaviour are invisible in them.
//
// The design keeps the fast path to one cache-local atomic increment:
//
//   - Counters are sharded per worker (or per message-passing processor)
//     into a Shard, a cache-line-padded block of atomic.Int64 fields.
//     Every Shard has exactly one writer — the worker that owns it — so
//     increments never contend; atomics are used (rather than plain
//     int64s) only so that Snapshot may run concurrently with a live
//     search and stay clean under the race detector.
//   - Snapshot sums the shards. It is intended for quiesce points (after
//     a pool joins) but is safe at any time; a mid-run snapshot is simply
//     a momentary view.
//   - Each Shard also carries the fixed histogram families of
//     internal/metrics (log₂ streaming histograms: abort-drain latency,
//     task run time, steal retries, deque depth, TT probe depth, msgpass
//     queue residence), merged across shards at Snapshot and published
//     as p50/p95/p99/max in Report and as Prometheus text by WriteProm
//     (served at /metrics on the -pprof mux of gtbench and gtplay).
//   - A Recorder bundles the shards with an optional span recorder for
//     split-point lifetimes (open → join → drain), which WriteTrace can
//     emit as Chrome trace_event JSON (chrome://tracing, Perfetto), and
//     an optional bounded structured event log (events.go) written as
//     JSONL and replayable into the same Chrome-trace path by gttrace.
//
// A nil *Recorder is a valid "telemetry off" value: every method is
// nil-receiver-safe, and the engine guards its increments with a single
// nil check, so the disabled cost is one predictable branch per event.
package telemetry

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"gametree/internal/metrics"
)

// Histogram indices into Shard.Hist. Each family keeps the distribution
// behind one of the cumulative counters (or a quantity no counter can
// carry at all), per-shard and single-writer like the counters; Snapshot
// merges them. The Prometheus exposition (WriteProm) publishes every
// family; Report extracts the headline quantiles.
const (
	HistAbortDrainNs   = iota // cutoff→drain latency of aborted joins, ns
	HistTaskRunNs             // wall time of one speculative task, ns
	HistStealRetries          // CAS retries per steal attempt that saw work
	HistDequeDepth            // deque depth observed at each split's push
	HistTTProbeDepth          // remaining search depth at each TT probe: >2, or <0 for no horizon
	HistMsgResidenceNs        // msgpass mailbox residence (send→drain), ns
	HistSplitDepth            // remaining search depth at each opened split point
	HistShardRPCNs            // shard RPC round trip (task dispatch→result), ns
	HistPNMPNDepth            // tree depth of each most-proving node a solver worker descended to
	NumHists
)

// HistName returns the stable short name of a histogram family (also its
// Prometheus metric name minus the "gametree_" prefix).
func HistName(i int) string {
	switch i {
	case HistAbortDrainNs:
		return "abort_drain_ns"
	case HistTaskRunNs:
		return "task_run_ns"
	case HistStealRetries:
		return "steal_retries"
	case HistDequeDepth:
		return "deque_depth"
	case HistTTProbeDepth:
		return "tt_probe_depth"
	case HistMsgResidenceNs:
		return "msg_residence_ns"
	case HistSplitDepth:
		return "split_depth"
	case HistShardRPCNs:
		return "shard_rpc_ns"
	case HistPNMPNDepth:
		return "pns_mpn_depth"
	}
	return ""
}

// HistHelp returns the Prometheus HELP text of a histogram family.
func HistHelp(i int) string {
	switch i {
	case HistAbortDrainNs:
		return "Cutoff-to-drain latency of beta-aborted joins, nanoseconds."
	case HistTaskRunNs:
		return "Wall time of one speculative sibling task, nanoseconds."
	case HistStealRetries:
		return "CAS retries per steal attempt on a non-empty victim deque."
	case HistDequeDepth:
		return "Owner deque depth observed when a split pushes its tasks."
	case HistTTProbeDepth:
		return "Remaining search depth at each transposition-table probe."
	case HistMsgResidenceNs:
		return "Message-passing mailbox residence from send to drain, nanoseconds."
	case HistSplitDepth:
		return "Remaining search depth at each opened split point."
	case HistShardRPCNs:
		return "Shard RPC round-trip latency (task dispatch to result, TT probe to reply), nanoseconds."
	case HistPNMPNDepth:
		return "Tree depth of each most-proving node a proof-number worker descended to."
	}
	return ""
}

// Shard is one writer's counter block: a pool worker, a Section 7
// machine processor, a shard-ring process or a proof-number solver
// worker. All fields are single-writer (owner-only); readers use
// Snapshot. The block is padded to whole cache lines so neighbouring
// shards never false-share.
//
// Counter semantics, grouped by the layer that writes them (see also
// README "Telemetry"):
//
//	search pool (internal/engine)
//	Tasks          speculative sibling tasks actually executed
//	StealAttempts  steal attempts on a non-empty victim deque
//	Steals         steal attempts that won the task
//	Splits         split points opened by this worker
//	NestedSplits   splits opened beneath an enclosing split (recursive
//	               YBWC splits inside a stolen subtree)
//	Aborts         tasks that observed an abort (skipped before running,
//	               or whose in-flight search was pre-empted)
//	NestedAborts   aborts propagated from an *ancestor* split's beta
//	               cutoff rather than raised locally — the chained abort
//	               rule pre-empting a whole speculative subtree
//	AbortDrains    joins that drained after a beta cutoff was raised
//	AbortDrainNs   cumulative cutoff-to-drain latency over those joins
//	TTProbes/TTHits/TTStores/TTEvictions
//	               transposition-table traffic issued by this worker;
//	               an eviction is a store that displaced a live entry of
//	               a different position
//	TableCuts      table nodes (a table, above the split horizon, a
//	               key) whose children raised alpha to beta: probe cuts
//	               excluded
//	EldestCuts     those of TableCuts whose cut came from the eldest
//	               child, the one the table move and the static order
//	               put first
//	OrderEvals     Evaluate calls spent ordering the children of table
//	               nodes; they are not nodes, so Nodes still counts the
//	               positions visited
//	DequeMax       high-water mark of this worker's deque depth
//	Parks          times this pool helper blocked on the pool's condition
//	               variable (worker 0 never parks)
//	Nodes          positions visited (folded in when the pool quiesces)
//
//	Section 7 machine (internal/msgpass, in-process mailboxes)
//	MsgsSent/MsgsRecv/MsgsStale
//	               messages a processor sent, drained from its mailbox,
//	               and dropped as stale (superseded invocations, values
//	               no live invocation waits on)
//
//	shard ring (internal/shard)
//	ShardTasks/ShardReissues
//	               root tasks dispatched to shard workers, and tasks
//	               reissued to a successor after a worker timed out or
//	               died
//
//	proof-number solver (internal/pns)
//	PNNodes/PNExpands/PNUpdates
//	               nodes traversed during most-proving-node descents,
//	               leaves expanded (children generated and initialized),
//	               and ancestor proof/disproof-number recomputations on
//	               the way back up
type Shard struct {
	Tasks         atomic.Int64
	StealAttempts atomic.Int64
	Steals        atomic.Int64
	Splits        atomic.Int64
	NestedSplits  atomic.Int64
	Aborts        atomic.Int64
	NestedAborts  atomic.Int64
	AbortDrains   atomic.Int64
	AbortDrainNs  atomic.Int64
	TTProbes      atomic.Int64
	TTHits        atomic.Int64
	TTStores      atomic.Int64
	TTEvictions   atomic.Int64
	TableCuts     atomic.Int64
	EldestCuts    atomic.Int64
	OrderEvals    atomic.Int64
	DequeMax      atomic.Int64
	Parks         atomic.Int64
	Nodes         atomic.Int64
	MsgsSent      atomic.Int64
	MsgsRecv      atomic.Int64
	MsgsStale     atomic.Int64
	ShardTasks    atomic.Int64
	ShardReissues atomic.Int64
	PNNodes       atomic.Int64
	PNExpands     atomic.Int64
	PNUpdates     atomic.Int64

	// Hist keeps the distributions behind the counters above (see the
	// Hist* index constants). Same discipline: single writer, atomic only
	// so concurrent snapshots stay race-clean.
	Hist [NumHists]metrics.Histogram
}

// ObserveDeque raises the deque high-water mark and samples the depth
// distribution. Owner-only, like every Shard write: the load-then-store
// is safe because no one else writes.
func (s *Shard) ObserveDeque(depth int64) {
	if depth > s.DequeMax.Load() {
		s.DequeMax.Store(depth)
	}
	s.Hist[HistDequeDepth].Observe(depth)
}

// Counts is a plain (non-atomic) image of one Shard, and the element of a
// Snapshot.
type Counts struct {
	Tasks         int64
	StealAttempts int64
	Steals        int64
	Splits        int64
	NestedSplits  int64
	Aborts        int64
	NestedAborts  int64
	AbortDrains   int64
	AbortDrainNs  int64
	TTProbes      int64
	TTHits        int64
	TTStores      int64
	TTEvictions   int64
	TableCuts     int64
	EldestCuts    int64
	OrderEvals    int64
	DequeMax      int64
	Parks         int64
	Nodes         int64
	MsgsSent      int64
	MsgsRecv      int64
	MsgsStale     int64
	ShardTasks    int64
	ShardReissues int64
	PNNodes       int64
	PNExpands     int64
	PNUpdates     int64
}

// load copies a shard's counters.
func (s *Shard) load() Counts {
	return Counts{
		Tasks:         s.Tasks.Load(),
		StealAttempts: s.StealAttempts.Load(),
		Steals:        s.Steals.Load(),
		Splits:        s.Splits.Load(),
		NestedSplits:  s.NestedSplits.Load(),
		Aborts:        s.Aborts.Load(),
		NestedAborts:  s.NestedAborts.Load(),
		AbortDrains:   s.AbortDrains.Load(),
		AbortDrainNs:  s.AbortDrainNs.Load(),
		TTProbes:      s.TTProbes.Load(),
		TTHits:        s.TTHits.Load(),
		TTStores:      s.TTStores.Load(),
		TTEvictions:   s.TTEvictions.Load(),
		TableCuts:     s.TableCuts.Load(),
		EldestCuts:    s.EldestCuts.Load(),
		OrderEvals:    s.OrderEvals.Load(),
		DequeMax:      s.DequeMax.Load(),
		Parks:         s.Parks.Load(),
		Nodes:         s.Nodes.Load(),
		MsgsSent:      s.MsgsSent.Load(),
		MsgsRecv:      s.MsgsRecv.Load(),
		MsgsStale:     s.MsgsStale.Load(),
		ShardTasks:    s.ShardTasks.Load(),
		ShardReissues: s.ShardReissues.Load(),
		PNNodes:       s.PNNodes.Load(),
		PNExpands:     s.PNExpands.Load(),
		PNUpdates:     s.PNUpdates.Load(),
	}
}

// add folds o into c (DequeMax takes the max, everything else sums).
func (c *Counts) add(o Counts) {
	c.Tasks += o.Tasks
	c.StealAttempts += o.StealAttempts
	c.Steals += o.Steals
	c.Splits += o.Splits
	c.NestedSplits += o.NestedSplits
	c.Aborts += o.Aborts
	c.NestedAborts += o.NestedAborts
	c.AbortDrains += o.AbortDrains
	c.AbortDrainNs += o.AbortDrainNs
	c.TTProbes += o.TTProbes
	c.TTHits += o.TTHits
	c.TTStores += o.TTStores
	c.TTEvictions += o.TTEvictions
	c.TableCuts += o.TableCuts
	c.EldestCuts += o.EldestCuts
	c.OrderEvals += o.OrderEvals
	if o.DequeMax > c.DequeMax {
		c.DequeMax = o.DequeMax
	}
	c.Parks += o.Parks
	c.Nodes += o.Nodes
	c.MsgsSent += o.MsgsSent
	c.MsgsRecv += o.MsgsRecv
	c.MsgsStale += o.MsgsStale
	c.ShardTasks += o.ShardTasks
	c.ShardReissues += o.ShardReissues
	c.PNNodes += o.PNNodes
	c.PNExpands += o.PNExpands
	c.PNUpdates += o.PNUpdates
}

// Snapshot is a point-in-time view of a Recorder: the per-shard counters,
// their sum, and the shard-merged histogram families.
type Snapshot struct {
	PerWorker []Counts
	Total     Counts
	Hist      [NumHists]metrics.HistSnapshot
}

// defaultMaxSpans bounds the span buffer so tracing a long search cannot
// grow memory without limit; spans past the cap are counted, not stored.
const defaultMaxSpans = 1 << 16

// Recorder bundles the counter shards of one instrumented subsystem with
// the optional span recorder. The zero value is not usable; construct
// with NewRecorder. A nil *Recorder means "telemetry off" and every
// method on it is a no-op.
type Recorder struct {
	epoch    time.Time
	tracing  atomic.Bool
	eventsOn atomic.Bool

	mu            sync.Mutex
	shards        []*Shard
	spans         []Span
	maxSpans      int
	dropped       int64
	events        []Event
	maxEvents     int
	droppedEvents int64
	promSections  []func(io.Writer) error // extra /metrics families (AddPromSection)
}

// NewRecorder returns an empty recorder with tracing and the event log
// off.
func NewRecorder() *Recorder {
	return &Recorder{epoch: time.Now(), maxSpans: defaultMaxSpans, maxEvents: defaultMaxEvents}
}

// EnableTrace turns the span recorder on. maxSpans bounds the buffer
// (<= 0 keeps the default); spans beyond the bound increment Dropped.
func (r *Recorder) EnableTrace(maxSpans int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if maxSpans > 0 {
		r.maxSpans = maxSpans
	}
	r.mu.Unlock()
	r.tracing.Store(true)
}

// TraceEnabled reports whether spans are being recorded. Nil-safe.
func (r *Recorder) TraceEnabled() bool { return r != nil && r.tracing.Load() }

// Now returns nanoseconds since the recorder's epoch (monotonic). It is
// the timebase of spans and latency counters. Nil-safe: 0 when off.
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// Shard returns the i'th counter shard, growing the shard set as needed.
// Growth happens only at quiesce points (pool construction), never on the
// search fast path. Nil-safe: returns nil when the recorder is off.
func (r *Recorder) Shard(i int) *Shard {
	if r == nil || i < 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.shards) <= i {
		r.shards = append(r.shards, new(Shard))
	}
	return r.shards[i]
}

// Snapshot sums the shards. Safe at any time (shards are single-writer,
// reads are atomic); exact once the instrumented search has quiesced.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	shards := r.shards
	r.mu.Unlock()
	snap := Snapshot{PerWorker: make([]Counts, len(shards))}
	for i, s := range shards {
		snap.PerWorker[i] = s.load()
		snap.Total.add(snap.PerWorker[i])
		for h := 0; h < NumHists; h++ {
			snap.Hist[h].Merge(s.Hist[h].Snapshot())
		}
	}
	return snap
}

// Report condenses a snapshot into the derived metrics the benchmarks and
// CI publish: steal efficiency, abort-drain latency, TT hit rate, and
// per-worker load skew.
type Report struct {
	Workers          int     `json:"workers"`
	Nodes            int64   `json:"nodes"`
	Tasks            int64   `json:"tasks"`
	Splits           int64   `json:"splits"`
	NestedSplits     int64   `json:"nested_splits,omitempty"`
	StealAttempts    int64   `json:"steal_attempts"`
	Steals           int64   `json:"steals"`
	StealEfficiency  float64 `json:"steal_efficiency"` // Steals/StealAttempts; 0 when no attempts
	Aborts           int64   `json:"aborts"`
	NestedAborts     int64   `json:"nested_aborts,omitempty"`
	AbortDrains      int64   `json:"abort_drains"`
	AbortDrainMeanUs float64 `json:"abort_drain_mean_us"` // mean cutoff→drain latency, µs
	// Abort-drain latency quantiles from the HistAbortDrainNs family —
	// the mean alone cannot expose tail regressions (Theorem 3's bounds
	// are per-processor, i.e. about the tail, not the average).
	AbortDrainP50Us float64 `json:"abort_drain_p50_us,omitempty"`
	AbortDrainP95Us float64 `json:"abort_drain_p95_us,omitempty"`
	AbortDrainP99Us float64 `json:"abort_drain_p99_us,omitempty"`
	AbortDrainMaxUs float64 `json:"abort_drain_max_us,omitempty"`
	// Task run-time quantiles (HistTaskRunNs): the grain-size distribution
	// of speculative work, the load-balance counterpart of LoadSkew.
	TaskRunP50Us float64 `json:"task_run_p50_us,omitempty"`
	TaskRunP95Us float64 `json:"task_run_p95_us,omitempty"`
	TaskRunP99Us float64 `json:"task_run_p99_us,omitempty"`
	// Steal-retry tail (HistStealRetries): CAS contention per steal
	// attempt that saw work.
	StealRetryP95 float64 `json:"steal_retry_p95,omitempty"`
	StealRetryMax int64   `json:"steal_retry_max,omitempty"`
	// Split-depth quantiles (HistSplitDepth): where in the tree split
	// points open. Spine-only splitting pins these near the root depth;
	// recursive YBWC spreads them down the tree.
	SplitDepthP50  float64 `json:"split_depth_p50,omitempty"`
	SplitDepthMax  int64   `json:"split_depth_max,omitempty"`
	TTProbes       int64   `json:"tt_probes"`
	TTHits         int64   `json:"tt_hits"`
	TTHitRate      float64 `json:"tt_hit_rate"` // TTHits/TTProbes; 0 when no probes
	TTStores       int64   `json:"tt_stores"`
	TTEvictions    int64   `json:"tt_evictions"`
	DequeHighWater int64   `json:"deque_high_water"`
	// Parks counts helper park events: each time an idle pool helper
	// blocked on the condition variable instead of spinning.
	Parks int64 `json:"parks"`
	// LoadSkew is max-over-workers tasks divided by the mean; 1.0 is a
	// perfectly even split, 0 when no tasks ran.
	LoadSkew       float64 `json:"load_skew"`
	PerWorkerTasks []int64 `json:"per_worker_tasks,omitempty"`
	MsgsSent       int64   `json:"msgs_sent,omitempty"`
	MsgsRecv       int64   `json:"msgs_recv,omitempty"`
	MsgsStale      int64   `json:"msgs_stale,omitempty"`
	// Distributed serving tier (shard runs only; zero and omitted on
	// single-process runs): task routing and crash reissues.
	ShardTasks    int64 `json:"shard_tasks,omitempty"`
	ShardReissues int64 `json:"shard_reissues,omitempty"`
	// Shard RPC round-trip quantiles (HistShardRPCNs).
	ShardRPCP50Us float64 `json:"shard_rpc_p50_us,omitempty"`
	ShardRPCP99Us float64 `json:"shard_rpc_p99_us,omitempty"`
	ShardRPCMaxUs float64 `json:"shard_rpc_max_us,omitempty"`
	// Proof-number solver traffic (solve runs only; zero and omitted on
	// alpha-beta searches): descent nodes, leaf expansions, ancestor
	// updates, and the depth distribution of the most-proving nodes the
	// workers selected (HistPNMPNDepth) — virtual-number divergence shows
	// up here as a spread, piling onto one leaf as a spike.
	PNNodes       int64   `json:"pn_nodes,omitempty"`
	PNExpands     int64   `json:"pn_expands,omitempty"`
	PNUpdates     int64   `json:"pn_updates,omitempty"`
	PNMPNDepthP50 float64 `json:"pn_mpn_depth_p50,omitempty"`
	PNMPNDepthP95 float64 `json:"pn_mpn_depth_p95,omitempty"`
	PNMPNDepthMax int64   `json:"pn_mpn_depth_max,omitempty"`
}

// Report derives the condensed metrics from a snapshot.
func (s Snapshot) Report() Report {
	t := s.Total
	rep := Report{
		Workers:        len(s.PerWorker),
		Nodes:          t.Nodes,
		Tasks:          t.Tasks,
		Splits:         t.Splits,
		NestedSplits:   t.NestedSplits,
		StealAttempts:  t.StealAttempts,
		Steals:         t.Steals,
		Aborts:         t.Aborts,
		NestedAborts:   t.NestedAborts,
		AbortDrains:    t.AbortDrains,
		TTProbes:       t.TTProbes,
		TTHits:         t.TTHits,
		TTStores:       t.TTStores,
		TTEvictions:    t.TTEvictions,
		DequeHighWater: t.DequeMax,
		Parks:          t.Parks,
	}
	if t.StealAttempts > 0 {
		rep.StealEfficiency = float64(t.Steals) / float64(t.StealAttempts)
	}
	if t.AbortDrains > 0 {
		rep.AbortDrainMeanUs = float64(t.AbortDrainNs) / float64(t.AbortDrains) / 1e3
	}
	if drain := s.Hist[HistAbortDrainNs]; drain.Count > 0 {
		rep.AbortDrainP50Us = drain.P50() / 1e3
		rep.AbortDrainP95Us = drain.P95() / 1e3
		rep.AbortDrainP99Us = drain.P99() / 1e3
		rep.AbortDrainMaxUs = float64(drain.Max) / 1e3
	}
	if run := s.Hist[HistTaskRunNs]; run.Count > 0 {
		rep.TaskRunP50Us = run.P50() / 1e3
		rep.TaskRunP95Us = run.P95() / 1e3
		rep.TaskRunP99Us = run.P99() / 1e3
	}
	if sr := s.Hist[HistStealRetries]; sr.Count > 0 {
		rep.StealRetryP95 = sr.P95()
		rep.StealRetryMax = sr.Max
	}
	if sd := s.Hist[HistSplitDepth]; sd.Count > 0 {
		rep.SplitDepthP50 = sd.P50()
		rep.SplitDepthMax = sd.Max
	}
	if t.TTProbes > 0 {
		rep.TTHitRate = float64(t.TTHits) / float64(t.TTProbes)
	}
	if len(s.PerWorker) > 0 && t.Tasks > 0 {
		var max int64
		rep.PerWorkerTasks = make([]int64, len(s.PerWorker))
		for i, w := range s.PerWorker {
			rep.PerWorkerTasks[i] = w.Tasks
			if w.Tasks > max {
				max = w.Tasks
			}
		}
		mean := float64(t.Tasks) / float64(len(s.PerWorker))
		rep.LoadSkew = float64(max) / mean
	}
	rep.MsgsSent = t.MsgsSent
	rep.MsgsRecv = t.MsgsRecv
	rep.MsgsStale = t.MsgsStale
	rep.ShardTasks = t.ShardTasks
	rep.ShardReissues = t.ShardReissues
	if rpc := s.Hist[HistShardRPCNs]; rpc.Count > 0 {
		rep.ShardRPCP50Us = rpc.P50() / 1e3
		rep.ShardRPCP99Us = rpc.P99() / 1e3
		rep.ShardRPCMaxUs = float64(rpc.Max) / 1e3
	}
	rep.PNNodes = t.PNNodes
	rep.PNExpands = t.PNExpands
	rep.PNUpdates = t.PNUpdates
	if mpn := s.Hist[HistPNMPNDepth]; mpn.Count > 0 {
		rep.PNMPNDepthP50 = mpn.P50()
		rep.PNMPNDepthP95 = mpn.P95()
		rep.PNMPNDepthMax = mpn.Max
	}
	return rep
}
