package shard

import (
	"context"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gametree/internal/engine"
	"gametree/internal/faultnet"
	"gametree/internal/reqtrace"
	"gametree/internal/serve"
	"gametree/internal/telemetry"
)

// PeerSetter is the optional transport capability the tier uses to
// spread addresses at runtime: the TCP transport implements it, the
// in-memory fault injector does not need it.
type PeerSetter interface {
	SetPeer(proc int, addr string)
}

// restartNotifier is the optional transport capability that reports a
// fresh process answering on a known address (transport.TCP implements
// it via its connection preamble). The coordinator uses it to expire a
// restarted worker's stale liveness immediately instead of waiting out
// DeadAfter.
type restartNotifier interface {
	SetRestartHandler(fn func(addr string, oldID, newID uint64))
}

// Config parameterizes a Coordinator. Net and Workers are required.
type Config struct {
	// Net carries the shard protocol; the coordinator calls Start and
	// owns Close.
	Net faultnet.Network
	// Self is this coordinator's processor id (conventionally 0).
	Self int
	// Workers lists the worker processor ids; they form the consistent-
	// hash ring tasks are routed on.
	Workers []int
	// ExpandDepth is how many plies a search is expanded before its
	// frontier is searched (default 1: the root's children). The
	// coordinator expands them and ships the frontier as tasks while the
	// ring has spare workers; otherwise the worker the whole root ships
	// to expands them on its own pool.
	ExpandDepth int
	// TaskTimeout is how long a dispatched task may stay unanswered
	// before its first reissue to another live worker (default
	// 2s). Subsequent reissues back off exponentially with jitter up to
	// retryBackoffCap times it.
	TaskTimeout time.Duration
	// RetryBudget bounds reissues per task: a task reissued more than
	// this many times is quarantined — settled with a QuarantineError,
	// or handed to the Fallback pool when one is configured — instead of
	// being retried forever (default 6).
	RetryBudget int
	// Fallback, when non-nil, is a local resident pool the coordinator
	// computes leaves on when the live ring is empty or a task exhausts
	// its retry budget: answers stay exact, latency degrades, and the
	// gametree_shard_degraded gauge flips instead of requests burning to
	// their deadline. The caller owns the pool and closes it after the
	// coordinator.
	Fallback *engine.Pool
	// DeadAfter marks a worker dead when its last ping is older than
	// this (default 3s). Dead workers are routed around.
	DeadAfter time.Duration
	// HelloEvery paces the peer-table broadcast (default 1s).
	HelloEvery time.Duration
	// PeerAddrs maps processor ids to transport addresses; announced in
	// hellos so a worker started without peer addresses learns the
	// coordinator's. Optional.
	PeerAddrs map[int]string
	// Telemetry records ShardTasks/ShardReissues and the shard_rpc_ns
	// round-trip histogram on its shard 0. Optional.
	Telemetry *telemetry.Recorder
	// Tracer records request-scoped spans (expand/route/rpc/fold/reissue)
	// for tasks whose envelopes carry a trace ID. Optional (nil = off).
	Tracer *reqtrace.Tracer
}

func (c Config) withDefaults() Config {
	if c.ExpandDepth <= 0 {
		c.ExpandDepth = 1
	}
	if c.TaskTimeout <= 0 {
		c.TaskTimeout = 2 * time.Second
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 3 * time.Second
	}
	if c.HelloEvery <= 0 {
		c.HelloEvery = time.Second
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 6
	}
	return c
}

// QuarantineError is the typed failure for a task that exhausted its
// retry budget with no fallback pool to absorb it — e.g. a poison leaf
// that kills every worker it touches, on a coordinator running without
// local compute.
type QuarantineError struct {
	Task     uint64 // task id
	Key      string // routing key ("game|pos")
	Attempts int    // reissues spent before quarantine
}

func (e *QuarantineError) Error() string {
	return fmt.Sprintf("shard: task %d (%s) quarantined after %d reissues", e.Task, e.Key, e.Attempts)
}

// Coordinator expands root positions, cascades the frontier to workers
// eldest first (routed by consistent hashing with bounded loads, each
// task on the window its elder brothers left), reissues timed-out tasks
// to another live worker by the same rule, and folds worker results back
// into exact root values with the negamax rule. It fans a search out so
// only while fewer searches are in flight than workers are live; a busy
// ring gets each root whole, as one task the worker expands and folds.
// It implements the serve.Backend contract (Search), so gtserve can swap
// it in for the local pool set.
//
// It is the I/O shell around the failure protocol (protocol.go): it reads
// the transport and its timers, passes each event with the time to the
// protocol under mu, and performs the returned actions in perform.
type Coordinator struct {
	cfg Config
	tm  *telemetry.Shard

	nextID atomic.Uint64

	mu    sync.Mutex
	proto *protocol // guarded by mu

	localCtx    context.Context // bounds fallback-pool searches; cancelled by Close
	localCancel context.CancelFunc

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewCoordinator builds a coordinator over an un-started network. Call
// Start before Search.
func NewCoordinator(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:    cfg,
		tm:     cfg.Telemetry.Shard(0),
		proto:  newProtocol(cfg, rand.New(rand.NewSource(time.Now().UnixNano()))),
		closed: make(chan struct{}),
	}
	c.localCtx, c.localCancel = context.WithCancel(context.Background())
	return c
}

// Start installs the delivery callback and spawns the hello and reissue
// loops. Workers start optimistic: every ring member is presumed alive
// until DeadAfter elapses without a ping.
func (c *Coordinator) Start() {
	c.step((*protocol).start)
	if rn, ok := c.cfg.Net.(restartNotifier); ok {
		rn.SetRestartHandler(func(addr string, _, _ uint64) {
			c.step(func(p *protocol, now time.Time) []action { return p.restarted(now, addr) })
		})
	}
	c.cfg.Net.Start(c.deliver)
	c.step((*protocol).hellos)
	c.wg.Add(2)
	go c.every(c.cfg.HelloEvery, (*protocol).hellos)
	// Sharing the reissue tick keeps death detection at TaskTimeout/4
	// granularity, which is also the soonest a death can have any
	// latency consequence.
	go c.every(c.cfg.TaskTimeout/4, (*protocol).tick)
}

// Close stops the loops and closes the network. Idempotent. In-flight
// Searches return ErrClosed.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.localCancel()
		c.wg.Wait()
		c.cfg.Net.Close()
	})
}

// ErrClosed is returned by Search once the coordinator is closed.
var ErrClosed = fmt.Errorf("shard: coordinator closed")

// step feeds one event to the protocol under mu, with the time, and then
// performs the actions it returned. It returns the time it passed.
func (c *Coordinator) step(event func(p *protocol, now time.Time) []action) time.Time {
	now := time.Now()
	c.mu.Lock()
	acts := event(c.proto, now)
	c.mu.Unlock()
	c.perform(acts)
	return now
}

// perform carries out the protocol's actions, in order, outside mu.
func (c *Coordinator) perform(acts []action) {
	for _, a := range acts {
		switch a.kind {
		case actSend, actReissue:
			if c.tm != nil && a.kind == actReissue {
				c.tm.ShardReissues.Add(1)
			} else if c.tm != nil && a.env.Kind == KindTask {
				c.tm.ShardTasks.Add(1)
			}
			c.cfg.Net.Send(faultnet.Packet{From: c.cfg.Self, To: a.to, Payload: a.env})
		case actLocal:
			c.runLocal(a.task)
		case actSettle:
			if c.tm != nil && a.rpcNs > 0 {
				c.tm.Hist[telemetry.HistShardRPCNs].Observe(a.rpcNs)
			}
			close(a.task.done)
		case actSetPeer:
			// A worker restarted on a fresh port announced itself:
			// re-route its stream; the hellos spread the address.
			if ps, ok := c.cfg.Net.(PeerSetter); ok {
				ps.SetPeer(a.to, a.addr)
			}
		case actSpan:
			c.cfg.Tracer.Record(a.span)
		}
	}
}

func (c *Coordinator) deliver(pkt faultnet.Packet) {
	env, ok := pkt.Payload.(*Envelope)
	if !ok {
		return
	}
	switch env.Kind {
	case KindResult:
		c.step(func(p *protocol, now time.Time) []action { return p.result(now, pkt.From, env) })
	case KindPing:
		c.step(func(p *protocol, now time.Time) []action { return p.ping(now, pkt.From, env) })
	}
}

// every feeds event to the protocol each period until Close.
func (c *Coordinator) every(period time.Duration, event func(p *protocol, now time.Time) []action) {
	defer c.wg.Done()
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-c.closed:
			return
		case <-t.C:
			c.step(event)
		}
	}
}

// ClockOffsets snapshots the per-worker clock-offset estimates for the
// tracer's /debug/gttrace dump (reqtrace.Tracer.SetOffsets).
func (c *Coordinator) ClockOffsets() map[int]reqtrace.Offset {
	c.mu.Lock()
	defer c.mu.Unlock()
	return maps.Clone(c.proto.offsets)
}

// Alive reports whether a worker is currently considered live.
func (c *Coordinator) Alive(proc int) bool {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.proto.alive(proc, now)
}

// runLocal computes one task on the fallback pool, the way a worker
// would, and reports it to the protocol, which settles it as degraded.
func (c *Coordinator) runLocal(t *pendingTask) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		wall := time.Now().UnixNano()
		res := &Envelope{Kind: KindResult, ID: t.env.ID}
		r, err := evaluate(c.localCtx, c.cfg.Fallback, t.env)
		if err == nil {
			res.Value, res.Best, res.Nodes = r.Value, r.Best, r.Nodes
		}
		if t.env.Trace != "" {
			c.cfg.Tracer.Record(reqtrace.Span{
				Trace: t.env.Trace, Stage: reqtrace.StageLocal,
				StartNs: wall, DurNs: time.Now().UnixNano() - wall,
				Task: t.env.ID, Worker: c.cfg.Self,
			})
		}
		c.step(func(p *protocol, now time.Time) []action { return p.localResult(now, t, res, err) })
	}()
}

// dispatch ships one cascade wave: each leaf becomes a task on its
// window (with its plies to expand at the worker), placed by the
// protocol, and dispatch waits until every one has settled (the reissue
// tick handles retries meanwhile), then fills in the leaves' results. With nobody alive and a fallback pool configured, a
// task skips the ring entirely and computes here — degraded, not hung —
// and dispatch reports it. Cancelling the search or closing the
// coordinator abandons the wave's outstanding tasks (workers finish and
// their results are dropped as unknown IDs). fanout names the search's
// path in the route span.
func (c *Coordinator) dispatch(ctx context.Context, game, trace, fanout string, leaves []*node) (degraded bool, err error) {
	select {
	case <-ctx.Done():
		return false, engine.ErrCancelled
	case <-c.closed:
		return false, ErrClosed
	default:
	}
	tasks := make([]*pendingTask, len(leaves))
	for i, l := range leaves {
		t := &pendingTask{
			env:  &Envelope{Kind: KindTask, ID: c.nextID.Add(1), Game: game, Pos: l.pos, Depth: l.depth, Plies: l.plies, Trace: trace},
			key:  game + "|" + l.pos,
			done: make(chan struct{}),
		}
		t.env.setWindow(l.alpha, l.beta)
		tasks[i] = t
	}
	start := c.step(func(p *protocol, now time.Time) []action { return p.place(now, tasks) })
	if trace != "" {
		c.cfg.Tracer.Record(reqtrace.Span{
			Trace: trace, Stage: reqtrace.StageRoute,
			StartNs: start.UnixNano(), DurNs: time.Since(start).Nanoseconds(),
			Note: fmt.Sprintf("fanout=%s tasks=%d", fanout, len(tasks)),
		})
	}

	for _, t := range tasks {
		select {
		case <-t.done:
		case <-ctx.Done():
			c.step(func(p *protocol, now time.Time) []action { return p.abandon(now, tasks) })
			return false, engine.ErrCancelled
		case <-c.closed:
			c.step(func(p *protocol, now time.Time) []action { return p.abandon(now, tasks) })
			return false, ErrClosed
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, t := range tasks {
		degraded = degraded || t.degraded
		switch {
		case err != nil:
		case t.err != nil:
			err = t.err
		case t.res.Err != "":
			err = fmt.Errorf("shard: worker error: %s", t.res.Err)
		default:
			leaves[i].res = engine.Result{Value: t.res.Value, Best: t.res.Best, Nodes: t.res.Nodes}
		}
	}
	return degraded, err
}

// Search evaluates (game, position) to depth and returns the exact
// sequential result: the root is expanded ExpandDepth plies, and the
// cascade evaluates that tree eldest first, each frontier leaf searched
// on the window its elder brothers left. While the ring has a spare
// worker (protocol.admit), the coordinator expands and ships each
// frontier leaf as a task; otherwise the root ships as one task that the
// worker expands and folds the same way. Cancelling ctx abandons the
// outstanding tasks; no goroutine of the search outlives it.
func (c *Coordinator) Search(ctx context.Context, game, position string, depth int) (engine.Result, error) {
	_, key, err := serve.ParsePosition(game, position)
	if err != nil {
		return engine.Result{}, err
	}
	canon := key[len(game)+1:]

	var onRing bool
	c.step(func(p *protocol, now time.Time) []action { onRing = p.admit(now); return nil })
	defer c.step((*protocol).leave)

	trace := reqtrace.FromContext(ctx)
	fanout := "worker"
	root := &node{pos: canon, depth: depth, plies: min(c.cfg.ExpandDepth, max(depth, 0))}
	if onRing {
		fanout = "ring"
		wallExpand := time.Now().UnixNano()
		var leaves int
		if root, leaves, err = expand(game, canon, depth, c.cfg.ExpandDepth); err != nil {
			return engine.Result{}, err
		}
		if trace != "" {
			c.cfg.Tracer.Record(reqtrace.Span{
				Trace: trace, Stage: reqtrace.StageExpand,
				StartNs: wallExpand, DurNs: time.Now().UnixNano() - wallExpand,
				Note: fmt.Sprintf("leaves=%d", leaves),
			})
		}
	}

	var degraded atomic.Bool
	var settledNs atomic.Int64 // when the latest wave settled: the fold span's start
	value, best, nodes, err := cascade(root, -inf, inf, func(wave []*node) error {
		d, err := c.dispatch(ctx, game, trace, fanout, wave)
		if d {
			degraded.Store(true)
		}
		if trace != "" {
			settledNs.Store(time.Now().UnixNano())
		}
		return err
	})
	if trace != "" {
		note := "ok"
		if err != nil {
			note = "err"
		}
		start := settledNs.Load()
		c.cfg.Tracer.Record(reqtrace.Span{
			Trace: trace, Stage: reqtrace.StageFold,
			StartNs: start, DurNs: time.Now().UnixNano() - start,
			Note: note,
		})
	}
	// Any leaf answered by the fallback pool makes the whole response
	// degraded-but-exact; surface that to the serving tier.
	if degraded.Load() {
		serve.MarkDegraded(ctx)
	}
	if err != nil {
		return engine.Result{}, err
	}
	return engine.Result{Value: value, Best: best, Nodes: nodes}, nil
}

// Epoch returns the current membership epoch. It starts at 1 and bumps
// on every membership transition: a worker's liveness lapsing, and a
// worker being admitted back.
func (c *Coordinator) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.proto.epoch
}

// FencedResults counts stale-epoch results discarded instead of folded.
func (c *Coordinator) FencedResults() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.proto.fenced
}

// PromSection publishes ring membership, per-worker liveness, the
// crash-recovery clock and the protocol's counters for
// telemetry.Recorder.AddPromSection.
func (c *Coordinator) PromSection() func(io.Writer) error {
	return func(w io.Writer) error {
		now := time.Now()
		procs := append([]int(nil), c.cfg.Workers...)
		sort.Ints(procs)
		alive := make(map[int]int64, len(procs))
		c.mu.Lock()
		p := c.proto
		for _, q := range procs {
			alive[q] = b2i(p.alive(q, now))
		}
		metrics := []struct {
			name, help string
			counter    bool
			v          int64
		}{
			{"gametree_shard_worker_deaths_total", "Worker alive-to-dead liveness transitions observed by the coordinator.", true, p.recovery.deaths},
			{"gametree_shard_recovering", "1 while a detected worker death has not yet passed the p99 recovery test.", false, b2i(p.recovery.deathNs != 0)},
			{"gametree_shard_recovery_last_ns", "Duration of the most recent crash recovery: death detection until windowed p99 task RPC latency fell back under threshold.", false, p.recovery.lastNs},
			{"gametree_shard_epoch", "Current membership epoch; bumps on every worker death edge and rejoin. Results stamped below a task's issue epoch are fenced.", false, int64(p.epoch)},
			{"gametree_shard_worker_rejoins_total", "Workers admitted back into the ring (restart or liveness recovery).", true, p.rejoins},
			{"gametree_shard_fenced_results_total", "Stale-epoch results discarded by the fence instead of folded.", true, p.fenced},
			{"gametree_shard_quarantined_total", "Tasks that exhausted their retry budget.", true, p.quarantined},
			{"gametree_shard_degraded_tasks_total", "Leaves computed on the coordinator's local fallback pool.", true, p.degradedTasks},
			{"gametree_shard_rerouted_tasks_total", "Tasks the bounded-load cap placed on a worker other than their live hash owner.", true, p.rerouted},
			{"gametree_shard_degraded", "1 while the live ring is empty and leaves fall back to local compute.", false, b2i(p.live(now) == 0)},
		}
		fanned := [2]int64{p.fannedRing, p.fannedWorker}
		c.mu.Unlock()
		if err := writeRingMembership(w, procs); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "# HELP gametree_shard_requests_total Searches by where they fanned out: over the ring from the coordinator, or at the one worker the root shipped to whole.\n"+
			"# TYPE gametree_shard_requests_total counter\n"+
			"gametree_shard_requests_total{fanout=\"ring\"} %d\ngametree_shard_requests_total{fanout=\"worker\"} %d\n", fanned[0], fanned[1]); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "# HELP gametree_shard_worker_alive Per-worker liveness (1 = pings fresher than -shard-dead-after).\n# TYPE gametree_shard_worker_alive gauge\n"); err != nil {
			return err
		}
		for _, q := range procs {
			if _, err := fmt.Fprintf(w, "gametree_shard_worker_alive{proc=\"%d\"} %d\n", q, alive[q]); err != nil {
				return err
			}
		}
		for _, m := range metrics {
			write := telemetry.PromGauge
			if m.counter {
				write = telemetry.PromCounter
			}
			if err := write(w, m.name, m.help, m.v); err != nil {
				return err
			}
		}
		return nil
	}
}

// b2i is a gauge's 1 for true, 0 for false.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// writeRingMembership emits the ring gauges shared by every shard role.
func writeRingMembership(w io.Writer, procs []int) error {
	if err := telemetry.PromGauge(w, "gametree_shard_ring_size",
		"Worker processes in the consistent-hash ring.", int64(len(procs))); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "# HELP gametree_shard_ring_member Ring membership by processor id.\n# TYPE gametree_shard_ring_member gauge\n"); err != nil {
		return err
	}
	for _, p := range procs {
		if _, err := fmt.Fprintf(w, "gametree_shard_ring_member{proc=\"%d\"} 1\n", p); err != nil {
			return err
		}
	}
	return nil
}
