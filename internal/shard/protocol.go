package shard

// The ring's failure protocol as one value: liveness and death edges,
// membership epochs, boot-nonce rejoin and the restart fast path, the
// epoch fence, reissue backoff, the retry budget and quarantine, fallback
// and bounded-load placement. It holds no lock, reads no clock, sends
// nothing and starts no goroutine. Each event is one method that takes
// the time and returns the actions to perform; the Coordinator calls it
// under its mutex and performs the actions after releasing it. With the
// jitter's rand seeded alike, the same events at the same times give the
// same actions.

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"time"

	"gametree/internal/reqtrace"
)

const (
	// retryBackoffCap caps the per-task backoff between reissues, in
	// units of TaskTimeout.
	retryBackoffCap = 8
	// recoveryP99 is the crash-recovery threshold: after a worker death
	// is detected, recovery is declared once the windowed p99 of task RPC
	// latency falls back under it.
	recoveryP99 = 500 * time.Millisecond
	// recoveryMinSamples is how many post-death RPC completions must land
	// in the latency window before the p99 test can declare recovery — a
	// guard against declaring victory on a near-empty window.
	recoveryMinSamples = 16
	// noAvoid is route's avoid argument for a first dispatch: no
	// processor id is negative, so it passes over nobody.
	noAvoid = -1
)

// actionKind says what an action asks the Coordinator to do.
type actionKind uint8

const (
	actSend    actionKind = iota // send env to worker to: a task's first dispatch, or a hello
	actReissue                   // send env, a task's reissued copy, to worker to
	actLocal                     // compute task on the fallback pool, then report localResult
	actSettle                    // close task's done channel
	actSetPeer                   // route processor to at addr from now on
	actSpan                      // record span
)

// action is one thing an event asks the Coordinator to perform. Which
// fields matter depends on kind.
type action struct {
	kind  actionKind
	to    int
	env   *Envelope
	task  *pendingTask
	rpcNs int64 // a settle by a worker's result: its round trip, for the RPC histogram
	addr  string
	span  reqtrace.Span
}

// pendingTask is one placed leaf awaiting its result. The Coordinator
// builds it (envelope, key, done channel); the protocol owns every other
// field from placement on.
type pendingTask struct {
	env   *Envelope
	key   string // routing key: "game|pos"
	to    int
	first time.Time // first dispatch: the RPC histogram and rpc span start here
	done  chan struct{}
	res   *Envelope
	err   error

	issueEpoch uint64    // membership epoch of the latest (re)issue; results below it are fenced
	attempts   int       // reissues so far
	nextDue    time.Time // earliest next reissue (jittered exponential backoff)
	local      bool      // being computed on the fallback pool, not the ring
	settled    bool      // settle action emitted; late results and reissues must not touch it
	degraded   bool      // answered by the fallback pool
}

// protocol is the coordinator's view of the ring and of every task out
// on it. The coordinator is the single writer of the epoch; workers only
// echo it.
type protocol struct {
	workers     []int // ring membership, in Config order
	ring        *Ring
	taskTimeout time.Duration
	deadAfter   time.Duration
	retryBudget int
	fallback    bool       // a fallback pool is configured
	rng         *rand.Rand // backoff jitter

	pending   map[uint64]*pendingTask
	lastPing  map[int]time.Time
	wasAlive  map[int]bool            // previous liveness sweep, for death-edge detection
	lastBoot  map[int]uint64          // last boot nonce seen per worker, for fast-restart detection
	deadSince map[int]time.Time       // when each currently-dead worker's liveness lapsed
	peerAddrs map[int]string          // mutable copy of Config.PeerAddrs; rejoins rewrite entries
	offsets   map[int]reqtrace.Offset // per-worker clock offsets from ping echoes
	recovery  recoveryTracker
	epoch     uint64 // membership epoch: bumps on every death edge and rejoin

	searches int // searches in flight, between their admit and their leave

	fannedRing    int64 // searches admitted to fan out over the ring
	fannedWorker  int64 // searches admitted to ship whole to one worker
	rejoins       int64 // workers admitted back (epoch bumps from pings)
	fenced        int64 // stale-epoch results discarded
	quarantined   int64 // tasks that exhausted their retry budget
	degradedTasks int64 // leaves sent to the fallback pool
	rerouted      int64 // tasks the load cap placed off their live hash owner
}

// newProtocol builds the protocol for a defaulted Config; rng draws the
// backoff jitter.
func newProtocol(cfg Config, rng *rand.Rand) *protocol {
	p := &protocol{
		workers:     append([]int(nil), cfg.Workers...),
		ring:        NewRing(cfg.Workers),
		taskTimeout: cfg.TaskTimeout,
		deadAfter:   cfg.DeadAfter,
		retryBudget: cfg.RetryBudget,
		fallback:    cfg.Fallback != nil,
		rng:         rng,
		pending:     make(map[uint64]*pendingTask),
		lastPing:    make(map[int]time.Time),
		wasAlive:    make(map[int]bool),
		lastBoot:    make(map[int]uint64),
		deadSince:   make(map[int]time.Time),
		peerAddrs:   make(map[int]string, len(cfg.PeerAddrs)),
		offsets:     make(map[int]reqtrace.Offset),
		recovery:    recoveryTracker{threshold: recoveryP99.Nanoseconds()},
		epoch:       1,
	}
	for q, a := range cfg.PeerAddrs {
		p.peerAddrs[q] = a
	}
	return p
}

// start is the first event: every worker is presumed alive as of now,
// until DeadAfter passes without a ping.
func (p *protocol) start(now time.Time) []action {
	for _, w := range p.workers {
		p.lastPing[w] = now
		p.wasAlive[w] = true
	}
	return nil
}

// alive reports ping freshness.
func (p *protocol) alive(w int, now time.Time) bool {
	last, ok := p.lastPing[w]
	return ok && now.Sub(last) < p.deadAfter
}

// live counts the live workers; when none is, new leaves go straight
// to the fallback pool.
func (p *protocol) live(now time.Time) int {
	n := 0
	for _, w := range p.workers {
		if p.alive(w, now) {
			n++
		}
	}
	return n
}

// admit is the event "a search arrives". It counts the search in flight
// until its leave, and says where the search fans out: over the ring
// (the coordinator expands and cascades the frontier) only while the
// searches in flight, the new one counted, are fewer than the live
// workers — only then would a worker otherwise idle. Otherwise the root
// ships whole to one worker, which expands and cascades it on its own
// pool. A one-worker ring never fans out; a lone search on an idle ring
// of two or more always does.
func (p *protocol) admit(now time.Time) (fanOut bool) {
	p.searches++
	fanOut = p.searches < p.live(now)
	if fanOut {
		p.fannedRing++
	} else {
		p.fannedWorker++
	}
	return fanOut
}

// leave is the event "a search returned", fanned out or not.
func (p *protocol) leave(now time.Time) []action {
	p.searches--
	return nil
}

// place is the event "tasks placed": each task, already carrying its
// envelope and key, is routed and sent, or — with the live ring empty
// and a fallback pool configured — computed locally.
func (p *protocol) place(now time.Time, tasks []*pendingTask) []action {
	var acts []action
	load := p.loads()
	for _, t := range tasks {
		t.first = now
		t.issueEpoch = p.epoch
		to, ok := p.route(t.key, load, noAvoid, now)
		if !ok && p.fallback {
			acts = p.runLocal(acts, t)
			continue
		}
		t.to = to
		t.nextDue = now.Add(p.taskTimeout)
		t.env.SentNs = now.UnixNano()
		t.env.Epoch = p.epoch
		p.pending[t.env.ID] = t
		acts = append(acts, action{kind: actSend, to: to, env: t.env})
	}
	return acts
}

// result is the event "a worker's result arrived". A result stamped
// below its task's issue epoch was computed under an issuance the ring
// has moved past — a pre-crash ghost, or a worker answering a superseded
// copy. Folding it could race the live reissue's answer, so it is
// fenced: counted and discarded, never folded. Results for unknown or
// settled tasks are dropped.
func (p *protocol) result(now time.Time, from int, env *Envelope) []action {
	t := p.pending[env.ID]
	if t == nil {
		return nil
	}
	if env.Epoch != 0 && env.Epoch < t.issueEpoch {
		p.fenced++
		if t.env.Trace == "" {
			return nil
		}
		return []action{{kind: actSpan, span: reqtrace.Span{
			Trace: t.env.Trace, Stage: reqtrace.StageRPC,
			StartNs: now.UnixNano(), Task: env.ID, Worker: from,
			Note: fmt.Sprintf("fenced epoch=%d<%d", env.Epoch, t.issueEpoch),
		}}}
	}
	rpc := now.Sub(t.first).Nanoseconds()
	p.recovery.observe(rpc, now.UnixNano())
	acts := p.settle(nil, t, env, nil, rpc)
	if t.env.Trace != "" {
		acts = append(acts, action{kind: actSpan, span: reqtrace.Span{
			Trace: t.env.Trace, Stage: reqtrace.StageRPC,
			StartNs: t.first.UnixNano(), DurNs: now.UnixNano() - t.first.UnixNano(),
			Task: env.ID, Worker: t.to,
		}})
	}
	return acts
}

// ping is the event "a worker pinged": it refreshes liveness and admits
// rejoining workers. A ping from a ring member that was not considered
// alive — or whose boot nonce changed, catching a restart faster than
// DeadAfter — bumps the membership epoch: tasks issued from here on carry
// the new epoch, and anything the previous incarnation still answers is
// fenced. A changed address re-routes the worker, and a rejoin
// re-announces the peer table and epoch at once, without waiting a tick.
func (p *protocol) ping(now time.Time, from int, env *Envelope) []action {
	if !slices.Contains(p.workers, from) {
		return nil // not a ring member
	}
	var acts []action
	prevAlive := p.alive(from, now)
	bootChanged := env.Boot != 0 && p.lastBoot[from] != 0 && env.Boot != p.lastBoot[from]
	if env.Boot != 0 {
		p.lastBoot[from] = env.Boot
	}
	if env.Addr != "" && p.peerAddrs[from] != env.Addr {
		p.peerAddrs[from] = env.Addr
		acts = append(acts, action{kind: actSetPeer, to: from, addr: env.Addr})
	}
	p.lastPing[from] = now
	if env.EchoNs != 0 && env.SentNs != 0 {
		p.observeOffset(from, env, now)
	}
	if prevAlive && !bootChanged {
		return acts
	}
	p.epoch++
	p.rejoins++
	var outageNs int64
	if t, ok := p.deadSince[from]; ok && !prevAlive {
		outageNs = now.Sub(t).Nanoseconds()
	}
	delete(p.deadSince, from)
	p.wasAlive[from] = true
	acts = append(acts, action{kind: actSpan, span: reqtrace.Span{
		Trace: fmt.Sprintf("rejoin-%d", from), Stage: reqtrace.StageRejoin,
		StartNs: now.UnixNano() - outageNs, DurNs: outageNs, Worker: from,
		Note: fmt.Sprintf("epoch=%d", p.epoch),
	}})
	return append(acts, p.hellos(now)...)
}

// restarted is the event "the transport saw a fresh process on addr":
// every worker routed to that address has its liveness expired on the
// spot, so the death edge (and the epoch bump that fences its ghost's
// results) lands at the next tick instead of DeadAfter later. The fresh
// process's own pings — carrying a new boot nonce — complete the rejoin.
func (p *protocol) restarted(now time.Time, addr string) []action {
	for _, w := range p.workers {
		if p.peerAddrs[w] == addr && p.alive(w, now) {
			p.lastPing[w] = now.Add(-p.deadAfter)
		}
	}
	return nil
}

// tick is the periodic event. It detects alive→dead edges — each bumps
// the epoch, so everything issued from here on outranks whatever the dead
// worker still answers — and then reissues every task past its backoff
// deadline, in task order, to a live worker other than the one that went
// quiet; with nobody else alive it retries the same one (the transport
// may simply have dropped the frame). Each reissue is stamped with the
// current epoch, superseding earlier copies. A task over its retry
// budget is quarantined; quarantined tasks — and every stale task when
// the whole ring is dead — fall back to the local pool when one is
// configured.
func (p *protocol) tick(now time.Time) []action {
	for _, w := range p.workers {
		a := p.alive(w, now)
		if p.wasAlive[w] && !a {
			p.recovery.noteDeath(now.UnixNano())
			p.epoch++
			p.deadSince[w] = now
		}
		p.wasAlive[w] = a
	}
	ids := make([]uint64, 0, len(p.pending))
	for id := range p.pending {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var acts []action
	load := p.loads()
	for _, id := range ids {
		t := p.pending[id]
		if t.local || now.Before(t.nextDue) {
			continue
		}
		load[t.to]-- // the task leaves its worker, whatever happens next
		t.attempts++
		if t.attempts > p.retryBudget {
			p.quarantined++
			if p.fallback {
				acts = p.runLocal(acts, t)
			} else {
				acts = p.settle(acts, t, nil, &QuarantineError{Task: id, Key: t.key, Attempts: t.attempts - 1}, 0)
			}
			continue
		}
		to, ok := p.route(t.key, load, t.to, now)
		if !ok {
			if p.fallback {
				// The whole ring is dead: stop burning the retry budget
				// on a void and compute the leaf here.
				acts = p.runLocal(acts, t)
				continue
			}
			to = t.to // everyone looks dead: retry where it was
		}
		t.to = to
		t.nextDue = now.Add(p.backoff(t.attempts))
		t.issueEpoch = p.epoch
		// Resend a copy: the original envelope may still be in the hands
		// of an in-process delivery path.
		env := *t.env
		env.SentNs = now.UnixNano()
		env.Epoch = p.epoch
		if env.Trace != "" {
			acts = append(acts, action{kind: actSpan, span: reqtrace.Span{
				Trace: env.Trace, Stage: reqtrace.StageReissue,
				StartNs: env.SentNs, Task: id, Worker: to,
			}})
		}
		acts = append(acts, action{kind: actReissue, to: to, env: &env})
	}
	return acts
}

// localResult is the event "the fallback pool finished a task": it
// settles as degraded. The answer is exactly what a worker would have
// produced — the same engine on the task's window.
func (p *protocol) localResult(now time.Time, t *pendingTask, res *Envelope, err error) []action {
	t.degraded = true
	if err != nil {
		res = nil
	}
	return p.settle(nil, t, res, err, 0)
}

// abandon is the event "the search gave up on these tasks" (cancelled,
// or the coordinator closed): they leave pending, and their late results
// drop as unknown. A task already on the fallback pool still settles.
func (p *protocol) abandon(now time.Time, tasks []*pendingTask) []action {
	for _, t := range tasks {
		delete(p.pending, t.env.ID)
	}
	return nil
}

// hellos announces the peer table and the epoch to every worker. It
// changes nothing, so the Coordinator calls it on its own timer too.
func (p *protocol) hellos(now time.Time) []action {
	peers := make(map[string]string, len(p.peerAddrs))
	for q, a := range p.peerAddrs {
		peers[strconv.Itoa(q)] = a
	}
	acts := make([]action, len(p.workers))
	for i, w := range p.workers {
		acts[i] = action{kind: actSend, to: w, env: &Envelope{
			Kind: KindHello, Peers: peers, Epoch: p.epoch, SentNs: now.UnixNano(),
		}}
	}
	return acts
}

// settle finalizes a task exactly once: it records the result or error,
// removes the task from pending and asks for its waiter's release. Late
// results, duplicate reissues and the fallback path all funnel through
// here, so the done channel can never be closed twice. rpcNs is a
// worker's round trip, 0 when no worker answered.
func (p *protocol) settle(acts []action, t *pendingTask, res *Envelope, err error, rpcNs int64) []action {
	if t.settled {
		return acts
	}
	t.settled = true
	t.res, t.err = res, err
	delete(p.pending, t.env.ID)
	return append(acts, action{kind: actSettle, task: t, rpcNs: rpcNs})
}

// runLocal hands a task to the fallback pool.
func (p *protocol) runLocal(acts []action, t *pendingTask) []action {
	t.local = true
	delete(p.pending, t.env.ID)
	p.degradedTasks++
	return append(acts, action{kind: actLocal, task: t})
}

// backoff computes the wait before a task's next reissue: the base
// TaskTimeout doubled per attempt, capped at retryBackoffCap times it,
// with ±25% jitter so a burst of simultaneously-stale tasks does not
// reissue in lockstep forever.
func (p *protocol) backoff(attempts int) time.Duration {
	d, limit := p.taskTimeout, retryBackoffCap*p.taskTimeout
	for i := 0; i < attempts && d < limit; i++ {
		d *= 2
	}
	d = min(d, limit)
	return time.Duration(float64(d) * (0.75 + 0.5*p.rng.Float64()))
}

// loads counts the in-flight ring tasks of every worker from pending:
// the one source of truth for load, so no second counter can drift from
// it. Callers keep the map in step with the tasks they place (route
// does).
func (p *protocol) loads() map[int]int {
	load := make(map[int]int, len(p.workers))
	for _, t := range p.pending {
		if !t.local {
			load[t.to]++
		}
	}
	return load
}

// route picks the worker for a task with routing key key: consistent
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
// false and to is the key's hash owner, as for Ring.OwnerLive.
func (p *protocol) route(key string, load map[int]int, avoid int, now time.Time) (to int, ok bool) {
	live, inflight := 0, 0
	for _, w := range p.workers {
		if p.alive(w, now) {
			live++
			inflight += load[w]
		}
	}
	if live == 0 {
		return p.ring.OwnerString(key), false
	}
	limit := (inflight + live) / live // ceil((inflight + 1) / live)
	owner, hasOwner := 0, false
	to, ok = p.ring.OwnerLiveString(key, func(q int) bool {
		if !p.alive(q, now) || q == avoid && live > 1 {
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
		p.rerouted++
	}
	load[to]++
	return to, true
}

// observeOffset folds one ping echo into the per-worker clock offset
// estimate, NTP-style: the echo bounds the round trip on the
// coordinator's clock, and the worker's own send stamp at the midpoint
// gives offset = SentNs - (EchoNs + rtt/2), with error at most rtt/2.
// The lowest-RTT sample is kept, aged slightly on every rejected sample
// so a long-lived minimum cannot pin a drift-stale estimate forever
// (the TCP RTT estimator trick; see DESIGN.md).
func (p *protocol) observeOffset(from int, env *Envelope, now time.Time) {
	rtt := now.UnixNano() - env.EchoNs
	if rtt < 0 {
		return // clock stepped backwards mid-flight; discard
	}
	off := env.SentNs - (env.EchoNs + rtt/2)
	cur, ok := p.offsets[from]
	if !ok || rtt <= cur.RTTNs {
		p.offsets[from] = reqtrace.Offset{OffsetNs: off, RTTNs: rtt}
		return
	}
	cur.RTTNs += cur.RTTNs/16 + 1
	p.offsets[from] = cur
}

// recoveryTracker measures crash-recovery time: from the moment a
// worker's liveness lapses until the windowed p99 of task RPC latency is
// back under threshold.
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
