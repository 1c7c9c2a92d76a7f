package shard

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
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
	// hash ring for both task routing and TT ownership.
	Workers []int
	// ExpandDepth is how many plies the coordinator expands before
	// shipping the frontier as tasks (default 1: the root's children).
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
	// hellos so workers can open worker-to-worker TT streams. Optional.
	PeerAddrs map[int]string
	// Telemetry records ShardTasks/ShardReissues and the shard_rpc_ns
	// round-trip histogram on its shard 0. Optional.
	Telemetry *telemetry.Recorder
	// Tracer records request-scoped spans (expand/route/rpc/fold/reissue)
	// for tasks whose envelopes carry a trace ID. Optional (nil = off).
	Tracer *reqtrace.Tracer
}

const (
	// retryBackoffCap caps the per-task backoff between reissues, in
	// units of TaskTimeout.
	retryBackoffCap = 8
	// recoveryP99 is the crash-recovery threshold: after a worker death
	// is detected, recovery is declared once the windowed p99 of task RPC
	// latency falls back under it.
	recoveryP99 = 500 * time.Millisecond
)

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

// pendingTask is one dispatched leaf awaiting its result.
type pendingTask struct {
	env       *Envelope
	key       string // routing key: "game|pos"
	to        int
	first     time.Time // first dispatch, for the RPC histogram
	firstWall int64     // first dispatch, wall clock, for the rpc span
	done      chan struct{}
	res       *Envelope
	err       error

	issueEpoch uint64    // membership epoch of the latest (re)issue; results below it are fenced
	attempts   int       // reissues so far
	nextDue    time.Time // earliest next reissue (jittered exponential backoff)
	local      bool      // being computed on the fallback pool, not the ring
	settled    bool      // done closed; late results and reissues must not touch it
	degraded   bool      // answered by the fallback pool
}

// recoveryMinSamples is how many post-death RPC completions must land in
// the latency window before the p99 test can declare recovery — a guard
// against declaring victory on a near-empty window.
const recoveryMinSamples = 16

// recoveryTracker measures crash-recovery time: from the moment a
// worker's liveness lapses until the windowed p99 of task RPC latency is
// back under threshold. All methods are called under Coordinator.mu.
type recoveryTracker struct {
	threshold int64 // ns
	window    [64]int64
	n         int // filled window entries
	idx       int
	samples   int   // completions observed since the current death
	deathNs   int64 // wall ns of the death being recovered from; 0 = steady
	lastNs    int64 // duration of the most recently completed recovery
	deaths    int64
}

func (r *recoveryTracker) noteDeath(nowNs int64) {
	r.deaths++
	if r.deathNs == 0 {
		r.deathNs = nowNs
	}
	r.samples = 0
}

func (r *recoveryTracker) observe(latNs, nowNs int64) {
	r.window[r.idx] = latNs
	r.idx = (r.idx + 1) % len(r.window)
	if r.n < len(r.window) {
		r.n++
	}
	if r.deathNs == 0 {
		return
	}
	r.samples++
	if r.samples < recoveryMinSamples {
		return
	}
	if r.p99() <= r.threshold {
		r.lastNs = nowNs - r.deathNs
		r.deathNs = 0
	}
}

func (r *recoveryTracker) p99() int64 {
	buf := make([]int64, r.n)
	copy(buf, r.window[:r.n])
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	return buf[(r.n*99)/100]
}

// Coordinator expands root positions, cascades the frontier to workers
// eldest first (routed by consistent hashing with bounded loads, each
// task on the window its elder brothers left), reissues timed-out tasks
// to another live worker by the same rule, and folds worker results back
// into exact root values with the negamax rule. It implements the
// serve.Backend contract (Search), so gtserve can swap it in for the
// local pool set.
type Coordinator struct {
	cfg  Config
	ring *Ring
	tm   *telemetry.Shard

	nextID atomic.Uint64

	mu        sync.Mutex
	pending   map[uint64]*pendingTask
	lastPing  map[int]time.Time
	wasAlive  map[int]bool            // previous liveness sweep, for death-edge detection
	offsets   map[int]reqtrace.Offset // per-worker clock offsets from ping echoes
	recovery  recoveryTracker
	epoch     uint64            // membership epoch: bumps on every death edge and rejoin; coordinator is the single writer
	lastBoot  map[int]uint64    // last boot nonce seen per worker, for fast-restart detection
	deadSince map[int]time.Time // when each currently-dead worker's liveness lapsed
	peerAddrs map[int]string    // mutable copy of cfg.PeerAddrs; rejoins rewrite entries
	rng       *rand.Rand        // backoff jitter; guarded by mu
	member    map[int]bool      // ring membership, for filtering foreign pings

	rejoins       int64 // workers admitted back (epoch bumps from pings)
	fenced        int64 // stale-epoch results discarded
	quarantined   int64 // tasks that exhausted their retry budget
	degradedTasks int64 // leaves computed on the fallback pool
	rerouted      int64 // tasks the load cap placed off their live hash owner

	localCtx    context.Context // bounds fallback-pool searches; cancelled by Close
	localCancel context.CancelFunc

	closed  chan struct{}
	closeMu sync.Mutex
	isClose bool
	wg      sync.WaitGroup
}

// NewCoordinator builds a coordinator over an un-started network. Call
// Start before Search.
func NewCoordinator(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:       cfg,
		ring:      NewRing(cfg.Workers),
		tm:        cfg.Telemetry.Shard(0),
		pending:   make(map[uint64]*pendingTask),
		lastPing:  make(map[int]time.Time),
		wasAlive:  make(map[int]bool),
		offsets:   make(map[int]reqtrace.Offset),
		epoch:     1,
		lastBoot:  make(map[int]uint64),
		deadSince: make(map[int]time.Time),
		peerAddrs: make(map[int]string, len(cfg.PeerAddrs)),
		rng:       rand.New(rand.NewSource(time.Now().UnixNano())),
		member:    make(map[int]bool, len(cfg.Workers)),
		closed:    make(chan struct{}),
	}
	for p, a := range cfg.PeerAddrs {
		c.peerAddrs[p] = a
	}
	for _, w := range cfg.Workers {
		c.member[w] = true
	}
	c.localCtx, c.localCancel = context.WithCancel(context.Background())
	c.recovery.threshold = recoveryP99.Nanoseconds()
	return c
}

// Start installs the delivery callback and spawns the hello and reissue
// loops. Workers start optimistic: every ring member is presumed alive
// until DeadAfter elapses without a ping.
func (c *Coordinator) Start() {
	now := time.Now()
	c.mu.Lock()
	for _, w := range c.cfg.Workers {
		c.lastPing[w] = now
		c.wasAlive[w] = true
	}
	c.mu.Unlock()
	if rn, ok := c.cfg.Net.(restartNotifier); ok {
		rn.SetRestartHandler(func(addr string, _, _ uint64) { c.peerRestarted(addr) })
	}
	c.cfg.Net.Start(c.deliver)
	c.sendHellos()
	c.wg.Add(2)
	go c.helloLoop()
	go c.reissueLoop()
}

// peerRestarted handles the transport's fresh-process signal: every
// worker routed to that address has its liveness expired on the spot, so
// the death edge (and the epoch bump that fences its ghost's results)
// lands at the next sweep instead of DeadAfter later. The fresh
// process's own pings — carrying a new boot nonce — complete the rejoin.
func (c *Coordinator) peerRestarted(addr string) {
	now := time.Now()
	c.mu.Lock()
	for _, w := range c.cfg.Workers {
		if c.peerAddrs[w] != addr {
			continue
		}
		if c.aliveLocked(w, now) {
			c.lastPing[w] = now.Add(-c.cfg.DeadAfter)
		}
	}
	c.mu.Unlock()
}

// Close stops the loops and closes the network. Idempotent. In-flight
// Searches return ErrClosed.
func (c *Coordinator) Close() {
	c.closeMu.Lock()
	if c.isClose {
		c.closeMu.Unlock()
		return
	}
	c.isClose = true
	close(c.closed)
	c.closeMu.Unlock()
	c.localCancel()
	c.wg.Wait()
	c.cfg.Net.Close()
}

// ErrClosed is returned by Search once the coordinator is closed.
var ErrClosed = fmt.Errorf("shard: coordinator closed")

func (c *Coordinator) deliver(pkt faultnet.Packet) {
	env, ok := pkt.Payload.(*Envelope)
	if !ok {
		return
	}
	switch env.Kind {
	case KindResult:
		now := time.Now()
		c.mu.Lock()
		p := c.pending[env.ID]
		if p != nil && env.Epoch != 0 && env.Epoch < p.issueEpoch {
			// Fence: this answer was computed under an issuance the ring
			// has moved past — a pre-crash ghost, or a worker answering a
			// superseded copy. Folding it could race the live reissue's
			// answer, so it is discarded, never folded.
			c.fenced++
			fencedTrace, issued := p.env.Trace, p.issueEpoch
			c.mu.Unlock()
			if fencedTrace != "" {
				c.cfg.Tracer.Record(reqtrace.Span{
					Trace: fencedTrace, Stage: reqtrace.StageRPC,
					StartNs: now.UnixNano(), Task: env.ID, Worker: pkt.From,
					Note: fmt.Sprintf("fenced epoch=%d<%d", env.Epoch, issued),
				})
			}
			return
		}
		if p != nil {
			c.settleLocked(p, env, nil)
			c.recovery.observe(now.Sub(p.first).Nanoseconds(), now.UnixNano())
		}
		c.mu.Unlock()
		if p != nil {
			if c.tm != nil {
				c.tm.Hist[telemetry.HistShardRPCNs].Observe(now.Sub(p.first).Nanoseconds())
			}
			if p.env.Trace != "" {
				c.cfg.Tracer.Record(reqtrace.Span{
					Trace: p.env.Trace, Stage: reqtrace.StageRPC,
					StartNs: p.firstWall, DurNs: now.UnixNano() - p.firstWall,
					Task: env.ID, Worker: p.to,
				})
			}
		}
	case KindPing:
		c.handlePing(pkt.From, env)
	}
}

// settleLocked finalizes a task exactly once: records the result or
// error, removes it from pending, and releases the waiter. Late results,
// duplicate reissues and the local-fallback path all funnel through
// here, so the done channel can never be closed twice. Callers hold
// c.mu.
func (c *Coordinator) settleLocked(p *pendingTask, res *Envelope, err error) bool {
	if p.settled {
		return false
	}
	p.settled = true
	p.res, p.err = res, err
	delete(c.pending, p.env.ID)
	close(p.done)
	return true
}

// handlePing refreshes liveness and admits rejoining workers. A ping
// from a ring member that was not considered alive — or whose boot
// nonce changed, catching a restart faster than DeadAfter — bumps the
// membership epoch: tasks issued from here on carry the new epoch, and
// anything the previous incarnation still answers is fenced. The
// coordinator is the single writer of the epoch; workers only echo it.
func (c *Coordinator) handlePing(from int, env *Envelope) {
	if !c.member[from] {
		return
	}
	now := time.Now()
	c.mu.Lock()
	prevAlive := c.aliveLocked(from, now)
	bootChanged := env.Boot != 0 && c.lastBoot[from] != 0 && env.Boot != c.lastBoot[from]
	if env.Boot != 0 {
		c.lastBoot[from] = env.Boot
	}
	var newAddr string
	if env.Addr != "" && c.peerAddrs[from] != env.Addr {
		c.peerAddrs[from] = env.Addr
		newAddr = env.Addr
	}
	rejoined := !prevAlive || bootChanged
	var outageNs int64
	if rejoined {
		c.epoch++
		c.rejoins++
		if t, ok := c.deadSince[from]; ok && !prevAlive {
			outageNs = now.Sub(t).Nanoseconds()
		}
		delete(c.deadSince, from)
		c.wasAlive[from] = true
	}
	c.lastPing[from] = now
	if env.EchoNs != 0 && env.SentNs != 0 {
		c.observeOffsetLocked(from, env, now)
	}
	epoch := c.epoch
	c.mu.Unlock()

	if newAddr != "" {
		// A worker restarted on a fresh port announced itself: re-route
		// its stream and let the next hello spread the address ring-wide.
		if ps, ok := c.cfg.Net.(PeerSetter); ok {
			ps.SetPeer(from, newAddr)
		}
	}
	if rejoined {
		c.cfg.Tracer.Record(reqtrace.Span{
			Trace: fmt.Sprintf("rejoin-%d", from), Stage: reqtrace.StageRejoin,
			StartNs: now.UnixNano() - outageNs, DurNs: outageNs, Worker: from,
			Note: fmt.Sprintf("epoch=%d", epoch),
		})
		// Re-announce the peer table promptly so the rejoined worker can
		// rebuild its worker-to-worker TT streams without waiting a tick.
		c.sendHellos()
	}
}

// observeOffsetLocked folds one ping echo into the per-worker clock
// offset estimate, NTP-style: the echo bounds the round trip on the
// coordinator's clock, and the worker's own send stamp at the midpoint
// gives offset = SentNs - (EchoNs + rtt/2), with error at most rtt/2.
// The lowest-RTT sample is kept, aged slightly on every rejected sample
// so a long-lived minimum cannot pin a drift-stale estimate forever
// (the TCP RTT estimator trick; see DESIGN.md). Callers hold c.mu.
func (c *Coordinator) observeOffsetLocked(from int, env *Envelope, now time.Time) {
	rtt := now.UnixNano() - env.EchoNs
	if rtt < 0 {
		return // clock stepped backwards mid-flight; discard
	}
	off := env.SentNs - (env.EchoNs + rtt/2)
	cur, ok := c.offsets[from]
	if !ok || rtt <= cur.RTTNs {
		c.offsets[from] = reqtrace.Offset{OffsetNs: off, RTTNs: rtt}
		return
	}
	cur.RTTNs += cur.RTTNs/16 + 1
	c.offsets[from] = cur
}

// ClockOffsets snapshots the per-worker clock-offset estimates for the
// tracer's /debug/gttrace dump (reqtrace.Tracer.SetOffsets).
func (c *Coordinator) ClockOffsets() map[int]reqtrace.Offset {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int]reqtrace.Offset, len(c.offsets))
	for p, o := range c.offsets {
		out[p] = o
	}
	return out
}

// alive reports ping freshness. Callers hold c.mu.
func (c *Coordinator) aliveLocked(proc int, now time.Time) bool {
	last, ok := c.lastPing[proc]
	return ok && now.Sub(last) < c.cfg.DeadAfter
}

// Alive reports whether a worker is currently considered live.
func (c *Coordinator) Alive(proc int) bool {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.aliveLocked(proc, now)
}

func (c *Coordinator) helloLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.HelloEvery)
	defer t.Stop()
	for {
		select {
		case <-c.closed:
			return
		case <-t.C:
			c.sendHellos()
		}
	}
}

func (c *Coordinator) sendHellos() {
	c.mu.Lock()
	peers := make(map[string]string, len(c.peerAddrs))
	for p, a := range c.peerAddrs {
		peers[strconv.Itoa(p)] = a
	}
	epoch := c.epoch
	c.mu.Unlock()
	for _, w := range c.cfg.Workers {
		c.cfg.Net.Send(faultnet.Packet{From: c.cfg.Self, To: w, Payload: &Envelope{
			Kind:   KindHello,
			Peers:  peers,
			Epoch:  epoch,
			SentNs: time.Now().UnixNano(),
		}})
	}
}

func (c *Coordinator) reissueLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.TaskTimeout / 4)
	defer t.Stop()
	for {
		select {
		case <-c.closed:
			return
		case <-t.C:
			c.sweepLiveness(time.Now())
			c.reissueStale()
		}
	}
}

// sweepLiveness detects alive→dead edges for the recovery clock and the
// membership epoch. Sharing the reissue tick keeps death detection at
// TaskTimeout/4 granularity, which is also the soonest a death can have
// any latency consequence.
func (c *Coordinator) sweepLiveness(now time.Time) {
	c.mu.Lock()
	for _, w := range c.cfg.Workers {
		a := c.aliveLocked(w, now)
		if c.wasAlive[w] && !a {
			c.recovery.noteDeath(now.UnixNano())
			// Membership shrank: bump the epoch so everything issued from
			// here on outranks whatever the dead worker still answers.
			c.epoch++
			c.deadSince[w] = now
		}
		c.wasAlive[w] = a
	}
	c.mu.Unlock()
}

// backoffLocked computes the wait before a task's next reissue: the
// base TaskTimeout doubled per attempt, capped at retryBackoffCap times
// it, with ±25% jitter so a burst of simultaneously-stale tasks does not
// reissue in lockstep forever. Callers hold c.mu.
func (c *Coordinator) backoffLocked(attempts int) time.Duration {
	d, limit := c.cfg.TaskTimeout, retryBackoffCap*c.cfg.TaskTimeout
	for i := 0; i < attempts && d < limit; i++ {
		d *= 2
	}
	d = min(d, limit)
	return time.Duration(float64(d) * (0.75 + 0.5*c.rng.Float64()))
}

// reissueStale re-sends every pending task past its backoff deadline,
// preferring a live processor other than the one that went quiet; with
// nobody else alive it retries the same one (the transport may simply
// have dropped the frame). Each reissue is stamped with the current
// membership epoch, superseding earlier copies. A task over its retry
// budget is quarantined; quarantined tasks — and every stale task when
// the whole ring is dead — fall back to the local pool when one is
// configured.
func (c *Coordinator) reissueStale() {
	now := time.Now()
	type resend struct {
		env *Envelope
		to  int
	}
	var out []resend
	var locals []*pendingTask
	c.mu.Lock()
	load := c.loadsLocked()
	for _, p := range c.pending {
		if p.local || now.Before(p.nextDue) {
			continue
		}
		load[p.to]-- // the task leaves its worker, whatever happens next
		p.attempts++
		if p.attempts > c.cfg.RetryBudget {
			c.quarantined++
			if c.cfg.Fallback != nil {
				p.local = true
				delete(c.pending, p.env.ID)
				locals = append(locals, p)
			} else {
				c.settleLocked(p, nil, &QuarantineError{Task: p.env.ID, Key: p.key, Attempts: p.attempts - 1})
			}
			continue
		}
		to, ok := c.routeLocked(p.key, load, p.to, now)
		if !ok {
			if c.cfg.Fallback != nil {
				// The whole ring is dead: stop burning the retry budget
				// on a void and compute the leaf here.
				p.local = true
				delete(c.pending, p.env.ID)
				locals = append(locals, p)
				continue
			}
			to = p.to // everyone looks dead: retry where it was
		}
		p.to = to
		p.nextDue = now.Add(c.backoffLocked(p.attempts))
		p.issueEpoch = c.epoch
		// Resend a copy: the original envelope may still be in the hands
		// of an in-process delivery path.
		env := *p.env
		env.SentNs = now.UnixNano()
		env.Epoch = c.epoch
		out = append(out, resend{env: &env, to: to})
	}
	c.mu.Unlock()
	for _, p := range locals {
		c.runLocal(p)
	}
	for _, r := range out {
		if c.tm != nil {
			c.tm.ShardReissues.Add(1)
		}
		if r.env.Trace != "" {
			c.cfg.Tracer.Record(reqtrace.Span{
				Trace: r.env.Trace, Stage: reqtrace.StageReissue,
				StartNs: r.env.SentNs, Task: r.env.ID, Worker: r.to,
			})
		}
		c.cfg.Net.Send(faultnet.Packet{From: c.cfg.Self, To: r.to, Payload: r.env})
	}
}

// noAvoid is routeLocked's avoid argument for a first dispatch: no
// processor id is negative, so it passes over nobody.
const noAvoid = -1

// loadsLocked counts the in-flight ring tasks of every worker from
// c.pending: the one source of truth for load, so no second counter can
// drift from it. Callers hold c.mu and keep the map in step with the
// tasks they place (routeLocked does).
func (c *Coordinator) loadsLocked() map[int]int {
	load := make(map[int]int, len(c.cfg.Workers))
	for _, p := range c.pending {
		if !p.local {
			load[p.to]++
		}
	}
	return load
}

// routeLocked picks the worker for a task with routing key key: consistent
// hashing with bounded loads (Mirrokni, Thorup & Zadimoghaddam). It walks
// the ring from the key's hash and takes the first live worker whose
// in-flight count in load is below ceil((in-flight on live workers + 1) /
// live workers); an idle ring keeps every key on its hash owner, and a
// wave of brothers that hash to one owner spreads over the others instead
// of queueing there. avoid is passed over while anyone else is live (a
// reissue's previous worker). When no permitted worker is under the cap —
// possible only when avoid is — the task goes to the plain live owner.
// On success load counts the task on its worker; a placement other than
// the plain live owner counts as rerouted. When no worker is live, ok is
// false and to is the key's hash owner, as for Ring.OwnerLive. Callers
// hold c.mu.
func (c *Coordinator) routeLocked(key string, load map[int]int, avoid int, now time.Time) (to int, ok bool) {
	live, inflight := 0, 0
	for _, w := range c.cfg.Workers {
		if c.aliveLocked(w, now) {
			live++
			inflight += load[w]
		}
	}
	if live == 0 {
		return c.ring.OwnerString(key), false
	}
	limit := (inflight + live) / live // ceil((inflight + 1) / live)
	owner, hasOwner := 0, false
	to, ok = c.ring.OwnerLiveString(key, func(q int) bool {
		if !c.aliveLocked(q, now) || q == avoid && live > 1 {
			return false
		}
		if !hasOwner {
			owner, hasOwner = q, true
		}
		return load[q] < limit
	})
	if !ok {
		to = owner
	}
	if to != owner {
		c.rerouted++
	}
	load[to]++
	return to, true
}

// runLocal computes one leaf on the fallback pool and settles it as
// degraded. The answer is exactly what a worker would have produced —
// the same engine on the task's window — only the latency story changes.
func (c *Coordinator) runLocal(p *pendingTask) {
	c.mu.Lock()
	c.degradedTasks++
	c.mu.Unlock()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		wall := time.Now().UnixNano()
		res := &Envelope{Kind: KindResult, ID: p.env.ID}
		pos, _, err := serve.ParsePosition(p.env.Game, p.env.Pos)
		if err == nil {
			var r engine.Result
			alpha, beta := p.env.window()
			r, err = c.cfg.Fallback.SearchWindow(c.localCtx, pos, p.env.Depth, alpha, beta)
			if err == nil {
				res.Value, res.Best, res.Nodes = r.Value, r.Best, r.Nodes
			}
		}
		if p.env.Trace != "" {
			c.cfg.Tracer.Record(reqtrace.Span{
				Trace: p.env.Trace, Stage: reqtrace.StageLocal,
				StartNs: wall, DurNs: time.Now().UnixNano() - wall,
				Task: p.env.ID, Worker: c.cfg.Self,
			})
		}
		c.mu.Lock()
		p.degraded = true
		if err != nil {
			c.settleLocked(p, nil, err)
		} else {
			c.settleLocked(p, res, nil)
		}
		c.mu.Unlock()
	}()
}

// dispatch ships one cascade wave: each leaf becomes a task on its
// window, routed to the live owner of its position key, and dispatch
// waits until every one has settled (reissueLoop handles retries
// meanwhile), then fills in the leaves' results. With nobody alive and a
// fallback pool configured, a task skips the ring entirely and computes
// here — degraded, not hung — and dispatch reports it. Cancelling the
// search or closing the coordinator abandons the wave's outstanding tasks
// (workers finish and their results are dropped as unknown IDs).
func (c *Coordinator) dispatch(ctx context.Context, game, trace string, leaves []*node) (degraded bool, err error) {
	select {
	case <-ctx.Done():
		return false, engine.ErrCancelled
	case <-c.closed:
		return false, ErrClosed
	default:
	}
	now := time.Now()
	wallRoute := now.UnixNano()
	tasks := make([]*pendingTask, len(leaves))
	var locals []*pendingTask
	type sendItem struct {
		to  int
		env *Envelope
	}
	var sends []sendItem
	c.mu.Lock()
	load := c.loadsLocked()
	for i, l := range leaves {
		p := &pendingTask{
			env:        &Envelope{Kind: KindTask, ID: c.nextID.Add(1), Game: game, Pos: l.pos, Depth: l.depth, Trace: trace},
			key:        game + "|" + l.pos,
			done:       make(chan struct{}),
			first:      now,
			firstWall:  wallRoute,
			issueEpoch: c.epoch,
		}
		p.env.setWindow(l.alpha, l.beta)
		tasks[i] = p
		to, ok := c.routeLocked(p.key, load, noAvoid, now)
		if !ok && c.cfg.Fallback != nil {
			p.local = true
			locals = append(locals, p)
			continue
		}
		p.to = to
		p.nextDue = now.Add(c.cfg.TaskTimeout)
		p.env.SentNs = wallRoute
		p.env.Epoch = c.epoch
		c.pending[p.env.ID] = p
		// Snapshot the route under the lock: the reissue loop may rewrite
		// p.to / p.local the moment a task is visible in pending.
		sends = append(sends, sendItem{to: to, env: p.env})
	}
	c.mu.Unlock()
	for _, p := range locals {
		c.runLocal(p)
	}
	for _, s := range sends {
		if c.tm != nil {
			c.tm.ShardTasks.Add(1)
		}
		c.cfg.Net.Send(faultnet.Packet{From: c.cfg.Self, To: s.to, Payload: s.env})
	}
	if trace != "" {
		c.cfg.Tracer.Record(reqtrace.Span{
			Trace: trace, Stage: reqtrace.StageRoute,
			StartNs: wallRoute, DurNs: time.Now().UnixNano() - wallRoute,
			Note: fmt.Sprintf("tasks=%d", len(tasks)),
		})
	}

	for _, p := range tasks {
		select {
		case <-p.done:
		case <-ctx.Done():
			c.abandon(tasks)
			return false, engine.ErrCancelled
		case <-c.closed:
			c.abandon(tasks)
			return false, ErrClosed
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, p := range tasks {
		degraded = degraded || p.degraded
		switch {
		case err != nil:
		case p.err != nil:
			err = p.err
		case p.res.Err != "":
			err = fmt.Errorf("shard: worker error: %s", p.res.Err)
		default:
			leaves[i].res = engine.Result{Value: p.res.Value, Best: p.res.Best, Nodes: p.res.Nodes}
		}
	}
	return degraded, err
}

// Search evaluates (game, position) to depth and returns the exact
// sequential result: the root is expanded ExpandDepth plies, and the
// cascade evaluates that tree eldest first, shipping each frontier leaf
// to a worker on the window its elder brothers left. Cancelling ctx
// abandons the outstanding tasks; no goroutine of the search outlives
// it.
func (c *Coordinator) Search(ctx context.Context, game, position string, depth int) (engine.Result, error) {
	_, key, err := serve.ParsePosition(game, position)
	if err != nil {
		return engine.Result{}, err
	}
	canon := key[len(game)+1:]

	trace := reqtrace.FromContext(ctx)
	wallExpand := time.Now().UnixNano()
	root, leaves, err := expand(game, canon, depth, c.cfg.ExpandDepth)
	if err != nil {
		return engine.Result{}, err
	}
	if trace != "" {
		c.cfg.Tracer.Record(reqtrace.Span{
			Trace: trace, Stage: reqtrace.StageExpand,
			StartNs: wallExpand, DurNs: time.Now().UnixNano() - wallExpand,
			Note: fmt.Sprintf("leaves=%d", leaves),
		})
	}

	var degraded atomic.Bool
	var settledNs atomic.Int64 // when the latest wave settled: the fold span's start
	value, best, nodes, err := cascade(root, -inf, inf, func(wave []*node) error {
		d, err := c.dispatch(ctx, game, trace, wave)
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

func (c *Coordinator) abandon(tasks []*pendingTask) {
	c.mu.Lock()
	for _, p := range tasks {
		delete(c.pending, p.env.ID)
	}
	c.mu.Unlock()
}

// Pending reports the number of outstanding tasks (for tests and the
// healthz surface).
func (c *Coordinator) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// Epoch returns the current membership epoch. It starts at 1 and bumps
// on every membership transition: a worker's liveness lapsing, and a
// worker being admitted back.
func (c *Coordinator) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Rejoins counts workers admitted back into the ring.
func (c *Coordinator) Rejoins() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rejoins
}

// FencedResults counts stale-epoch results discarded instead of folded.
func (c *Coordinator) FencedResults() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fenced
}

// Quarantined counts tasks that exhausted their retry budget.
func (c *Coordinator) Quarantined() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.quarantined
}

// DegradedTasks counts leaves computed on the fallback pool.
func (c *Coordinator) DegradedTasks() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.degradedTasks
}

// DegradedMode reports whether the live ring is currently empty — the
// state in which new leaves go straight to the fallback pool.
func (c *Coordinator) DegradedMode() bool {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.cfg.Workers {
		if c.aliveLocked(w, now) {
			return false
		}
	}
	return true
}

// PromSection publishes ring membership, per-worker liveness and the
// crash-recovery clock for telemetry.Recorder.AddPromSection.
func (c *Coordinator) PromSection() func(io.Writer) error {
	return func(w io.Writer) error {
		now := time.Now()
		procs := append([]int(nil), c.cfg.Workers...)
		sort.Ints(procs)
		alive := make(map[int]bool, len(procs))
		anyAlive := false
		c.mu.Lock()
		for _, p := range procs {
			alive[p] = c.aliveLocked(p, now)
			anyAlive = anyAlive || alive[p]
		}
		deaths := c.recovery.deaths
		var recovering int64
		if c.recovery.deathNs != 0 {
			recovering = 1
		}
		lastNs := c.recovery.lastNs
		epoch := c.epoch
		rejoins := c.rejoins
		fenced := c.fenced
		quarantined := c.quarantined
		degradedTasks := c.degradedTasks
		rerouted := c.rerouted
		c.mu.Unlock()
		var degraded int64
		if !anyAlive {
			degraded = 1
		}
		if err := writeRingMembership(w, procs); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "# HELP gametree_shard_worker_alive Per-worker liveness (1 = pings fresher than -shard-dead-after).\n# TYPE gametree_shard_worker_alive gauge\n"); err != nil {
			return err
		}
		for _, p := range procs {
			v := 0
			if alive[p] {
				v = 1
			}
			if _, err := fmt.Fprintf(w, "gametree_shard_worker_alive{proc=\"%d\"} %d\n", p, v); err != nil {
				return err
			}
		}
		if err := telemetry.PromCounter(w, "gametree_shard_worker_deaths_total",
			"Worker alive-to-dead liveness transitions observed by the coordinator.", deaths); err != nil {
			return err
		}
		if err := telemetry.PromGauge(w, "gametree_shard_recovering",
			"1 while a detected worker death has not yet passed the p99 recovery test.", recovering); err != nil {
			return err
		}
		if err := telemetry.PromGauge(w, "gametree_shard_recovery_last_ns",
			"Duration of the most recent crash recovery: death detection until windowed p99 task RPC latency fell back under threshold.", lastNs); err != nil {
			return err
		}
		if err := telemetry.PromGauge(w, "gametree_shard_epoch",
			"Current membership epoch; bumps on every worker death edge and rejoin. Results stamped below a task's issue epoch are fenced.", int64(epoch)); err != nil {
			return err
		}
		if err := telemetry.PromCounter(w, "gametree_shard_worker_rejoins_total",
			"Workers admitted back into the ring (restart or liveness recovery).", rejoins); err != nil {
			return err
		}
		if err := telemetry.PromCounter(w, "gametree_shard_fenced_results_total",
			"Stale-epoch results discarded by the fence instead of folded.", fenced); err != nil {
			return err
		}
		if err := telemetry.PromCounter(w, "gametree_shard_quarantined_total",
			"Tasks that exhausted their retry budget.", quarantined); err != nil {
			return err
		}
		if err := telemetry.PromCounter(w, "gametree_shard_degraded_tasks_total",
			"Leaves computed on the coordinator's local fallback pool.", degradedTasks); err != nil {
			return err
		}
		if err := telemetry.PromCounter(w, "gametree_shard_rerouted_tasks_total",
			"Tasks the bounded-load cap placed on a worker other than their live hash owner.", rerouted); err != nil {
			return err
		}
		return telemetry.PromGauge(w, "gametree_shard_degraded",
			"1 while the live ring is empty and leaves fall back to local compute.", degraded)
	}
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
