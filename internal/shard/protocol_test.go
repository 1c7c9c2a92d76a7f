package shard

// The failure protocol driven with no network and no clock. A seeded
// explorer plays a simulated ring of two or three workers against one
// protocol value: crashes, rejoins, restarts on the same and on a new
// address, delays, duplicated and stale-epoch replies, partitions and
// ticks, interleaved with searches that run through cascade on top. The
// time is a variable, so every seed replays to the same event/action
// log, and the protocol's invariants are checked after every step.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"gametree/internal/engine"
)

// protoState is what tests read of a coordinator's protocol value.
type protoState struct {
	pending                             int
	rejoins, quarantined, degradedTasks int64
	degradedMode                        bool // the live ring is empty: new leaves go to the fallback pool
	searches                            int  // searches in flight
	fannedRing, fannedWorker            int64
}

// state reads the coordinator's protocol value under its lock.
func state(c *Coordinator) protoState {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.proto
	return protoState{
		pending:       len(p.pending),
		rejoins:       p.rejoins,
		quarantined:   p.quarantined,
		degradedTasks: p.degradedTasks,
		degradedMode:  p.live(now) == 0,
		searches:      p.searches,
		fannedRing:    p.fannedRing,
		fannedWorker:  p.fannedWorker,
	}
}

const (
	exploreTimeout   = 100 * time.Millisecond
	exploreDeadAfter = 250 * time.Millisecond
	exploreBudget    = 4
	exploreSearches  = 2 // searches in flight at once
)

// exploreCase is one search the explorer runs, with engine.Search's
// answer.
type exploreCase struct {
	game, pos string
	depth     int
	want      engine.Result
}

// leafCache answers a task the way every worker would, by evaluate: the
// engine on the task's window, after expanding its plies. Shared by all
// seeds; the explorer is single-threaded apart from the search
// goroutines, which never touch it.
type leafCache struct {
	pool *engine.Pool
	memo map[string]engine.Result
}

func (lc *leafCache) eval(t *testing.T, env *Envelope) engine.Result {
	alpha, beta := env.window()
	k := fmt.Sprintf("%s|%s|%d|%d|%d|%d", env.Game, env.Pos, env.Depth, env.Plies, alpha, beta)
	if r, ok := lc.memo[k]; ok {
		return r
	}
	r, err := evaluate(context.Background(), lc.pool, env)
	if err != nil {
		t.Fatal(err)
	}
	lc.memo[k] = r
	return r
}

// simWorker is one worker process as the explorer sees it.
type simWorker struct {
	id    int
	up    bool // the process runs
	cut   bool // its link to the coordinator is partitioned
	boot  uint64
	addr  string
	queue []*Envelope // tasks received, not yet answered
}

// reply is a worker's result on its way to the coordinator.
type reply struct {
	from int
	env  *Envelope
}

// search is one cascade running in its own goroutine; its dispatch hands
// each wave to the explorer and blocks until the explorer answers.
type search struct {
	c       exploreCase
	req     chan []*node
	resp    chan error
	done    chan error
	result  engine.Result
	running bool // between waves: the explorer waits for its next wave or its end
	leaves  []*node
	wave    []*pendingTask
}

// world is the explorer's simulated ring around one protocol value.
type world struct {
	t        *testing.T
	seed     int64
	step     int
	rng      *rand.Rand
	p        *protocol
	now      time.Time
	log      strings.Builder
	leaf     *leafCache
	cases    []exploreCase
	nextCase int

	workers  []*simWorker
	replies  []reply
	locals   []*pendingTask
	searches []*search
	nextID   uint64
	nextBoot uint64

	settles   map[uint64]int // settle actions per task
	placed    []*pendingTask // every task placed, in order
	abandoned map[uint64]bool
	epoch     uint64 // the highest epoch seen
}

func newWorld(t *testing.T, seed int64, lc *leafCache, cases []exploreCase) *world {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + int(seed%2)
	procs := make([]int, n)
	addrs := make(map[int]string, n)
	w := &world{
		t: t, seed: seed, rng: rng, leaf: lc, cases: cases,
		now:       time.Unix(1_000_000, 0),
		settles:   make(map[uint64]int),
		abandoned: make(map[uint64]bool),
		nextCase:  int(seed) % len(cases),
	}
	for i := range procs {
		procs[i] = i + 1
		w.nextBoot++
		sw := &simWorker{id: i + 1, up: true, boot: w.nextBoot, addr: fmt.Sprintf("w%d:7000", i+1)}
		addrs[sw.id] = sw.addr
		w.workers = append(w.workers, sw)
	}
	cfg := Config{Workers: procs, TaskTimeout: exploreTimeout, DeadAfter: exploreDeadAfter, RetryBudget: exploreBudget, PeerAddrs: addrs}
	// The jitter has its own stream, so the protocol draws the same
	// numbers whatever the explorer draws between its calls.
	w.p = newProtocol(cfg.withDefaults(), rand.New(rand.NewSource(seed^0x5eed)))
	w.p.fallback = seed%3 != 0
	w.p.start(w.now)
	w.epoch = w.p.epoch
	return w
}

func (w *world) fatalf(format string, args ...any) {
	w.t.Helper()
	lines := strings.Split(w.log.String(), "\n")
	if len(lines) > 12 {
		lines = lines[len(lines)-12:]
	}
	w.t.Fatalf("seed %d step %d: %s\nlast log lines:\n%s", w.seed, w.step, fmt.Sprintf(format, args...), strings.Join(lines, "\n"))
}

// event runs one protocol event, logs it with its actions, performs the
// actions on the simulated ring and checks the invariants every step
// must keep.
func (w *world) event(name string, call func(now time.Time) []action) []action {
	w.t.Helper()
	acts := call(w.now)
	fmt.Fprintf(&w.log, "%d +%dms %s:", w.step, w.now.Sub(time.Unix(1_000_000, 0)).Milliseconds(), name)
	for _, a := range acts {
		w.log.WriteString(" " + fmtAction(a))
		w.perform(a)
	}
	w.log.WriteByte('\n')
	if w.p.epoch < w.epoch {
		w.fatalf("epoch fell from %d to %d", w.epoch, w.p.epoch)
	}
	w.epoch = w.p.epoch
	for id, t := range w.p.pending {
		if t.settled || t.local {
			w.fatalf("task %d pending while settled=%v local=%v", id, t.settled, t.local)
		}
	}
	return acts
}

func fmtAction(a action) string {
	switch a.kind {
	case actSend:
		if a.env.Kind == KindHello {
			return fmt.Sprintf("hello→%d@%d", a.to, a.env.Epoch)
		}
		return fmt.Sprintf("send#%d→%d@%d", a.env.ID, a.to, a.env.Epoch)
	case actReissue:
		return fmt.Sprintf("reissue#%d→%d@%d", a.env.ID, a.to, a.env.Epoch)
	case actLocal:
		return fmt.Sprintf("local#%d", a.task.env.ID)
	case actSettle:
		if a.task.err != nil {
			return fmt.Sprintf("settle#%d!%v", a.task.env.ID, a.task.err)
		}
		return fmt.Sprintf("settle#%d=%d", a.task.env.ID, a.task.res.Value)
	case actSetPeer:
		return fmt.Sprintf("peer%d=%s", a.to, a.addr)
	case actSpan:
		return fmt.Sprintf("span:%s:%s", a.span.Stage, a.span.Trace)
	}
	return fmt.Sprintf("?%d", a.kind)
}

// perform plays an action out on the simulated ring.
func (w *world) perform(a action) {
	switch a.kind {
	case actSend, actReissue:
		if a.env.Kind != KindTask {
			return
		}
		sw := w.workers[a.to-1]
		if !sw.up || sw.cut {
			return // lost on the wire
		}
		for _, q := range sw.queue {
			if q.ID == a.env.ID { // a duplicate: the worker keeps the newest epoch
				q.Epoch = max(q.Epoch, a.env.Epoch)
				return
			}
		}
		env := *a.env
		sw.queue = append(sw.queue, &env)
	case actLocal:
		w.locals = append(w.locals, a.task)
	case actSettle:
		id := a.task.env.ID
		w.settles[id]++
		if w.settles[id] > 1 {
			w.fatalf("task %d settled %d times", id, w.settles[id])
		}
	}
}

// live counts the workers the protocol holds live now.
func (w *world) live() int {
	n := 0
	for _, sw := range w.workers {
		if w.p.alive(sw.id, w.now) {
			n++
		}
	}
	return n
}

// checkFallback: a task goes to the fallback pool only when no worker is
// live or its reissues exceed the retry budget.
func (w *world) checkFallback(acts []action) {
	for _, a := range acts {
		if a.kind == actLocal && w.live() > 0 && a.task.attempts <= w.p.retryBudget {
			w.fatalf("task %d sent to the fallback pool with %d live workers after %d reissues", a.task.env.ID, w.live(), a.task.attempts)
		}
	}
}

// place hands a search's wave to the protocol and checks bounded loads:
// no first dispatch lands on a worker already at ceil((in-flight+1)/live).
func (w *world) place(s *search, wave []*node) {
	s.leaves, s.wave = wave, make([]*pendingTask, len(wave))
	for i, l := range wave {
		w.nextID++
		t := &pendingTask{
			env: &Envelope{Kind: KindTask, ID: w.nextID, Game: s.c.game, Pos: l.pos, Depth: l.depth, Plies: l.plies},
			key: s.c.game + "|" + l.pos,
		}
		t.env.setWindow(l.alpha, l.beta)
		s.wave[i] = t
		w.placed = append(w.placed, t)
	}
	load := w.p.loads()
	acts := w.event("place", func(now time.Time) []action { return w.p.place(now, s.wave) })
	for _, a := range acts {
		if a.kind != actSend {
			continue
		}
		live, inflight := 0, 0
		for _, sw := range w.workers {
			if w.p.alive(sw.id, w.now) {
				live++
				inflight += load[sw.id]
			}
		}
		if live == 0 {
			continue
		}
		if limit := (inflight + live) / live; !w.p.alive(a.to, w.now) || load[a.to] >= limit {
			w.fatalf("task %d placed on worker %d (live %v) holding %d, cap %d", a.env.ID, a.to, w.p.alive(a.to, w.now), load[a.to], limit)
		}
		load[a.to]++
	}
	w.checkFallback(acts)
}

// sync waits for every running search to hand over its next wave or to
// end, and starts new searches while starting is true. Search goroutines
// compute between waves and touch nothing the explorer owns, so waiting
// on each in turn keeps the run deterministic.
func (w *world) sync(starting bool) {
	for starting && len(w.searches) < exploreSearches {
		c := w.cases[w.nextCase%len(w.cases)]
		w.nextCase++
		s := &search{c: c, req: make(chan []*node), resp: make(chan error), done: make(chan error, 1), running: true}
		var fanOut bool
		w.event("admit", func(now time.Time) []action { fanOut = w.p.admit(now); return nil })
		root := &node{pos: c.pos, depth: c.depth, plies: min(1, c.depth)}
		if fanOut {
			var err error
			if root, _, err = expand(c.game, c.pos, c.depth, 1); err != nil {
				w.t.Fatal(err)
			}
		}
		go func() {
			v, best, nodes, err := cascade(root, -inf, inf, func(wave []*node) error {
				s.req <- wave
				return <-s.resp
			})
			s.result = engine.Result{Value: v, Best: best, Nodes: nodes}
			s.done <- err
		}()
		w.searches = append(w.searches, s)
	}
	kept := w.searches[:0]
	for _, s := range w.searches {
		if s.running {
			select {
			case wave := <-s.req:
				s.running = false
				w.place(s, wave)
			case err := <-s.done:
				w.finish(s, err)
				w.event("leave", w.p.leave)
				continue
			}
		}
		kept = append(kept, s)
	}
	w.searches = kept
}

// finish checks a search's answer: the folded root must be
// engine.Search's, unless the search was cancelled or, with no fallback
// pool, a task was quarantined.
func (w *world) finish(s *search, err error) {
	fmt.Fprintf(&w.log, "%d done %s %q: %v %v\n", w.step, s.c.game, s.c.pos, s.result.Value, err)
	var qe *QuarantineError
	switch {
	case errors.Is(err, engine.ErrCancelled):
	case errors.As(err, &qe) && !w.p.fallback:
	case err != nil:
		w.fatalf("search %s %q: %v", s.c.game, s.c.pos, err)
	case s.result.Value != s.c.want.Value || s.result.Best != s.c.want.Best:
		w.fatalf("search %s %q d=%d folded (v=%d best=%d), engine.Search (v=%d best=%d)",
			s.c.game, s.c.pos, s.c.depth, s.result.Value, s.result.Best, s.c.want.Value, s.c.want.Best)
	}
}

// release answers every waiting search whose wave has fully settled, the
// way the Coordinator's dispatch does.
func (w *world) release() {
	for _, s := range w.searches {
		settled := !s.running
		for _, t := range s.wave {
			settled = settled && t.settled
		}
		if !settled {
			continue
		}
		var err error
		for i, t := range s.wave {
			switch {
			case err != nil:
			case t.err != nil:
				err = t.err
			default:
				s.leaves[i].res = engine.Result{Value: t.res.Value, Best: t.res.Best, Nodes: t.res.Nodes}
			}
		}
		s.running = true
		s.resp <- err
	}
}

// deliver hands a reply to the protocol and checks the fence: a reply
// below its task's issue epoch is counted as fenced and never settles it.
func (w *world) deliver(r reply, name string) {
	if w.workers[r.from-1].cut {
		return // lost on the wire
	}
	t := w.p.pending[r.env.ID]
	stale := t != nil && r.env.Epoch != 0 && r.env.Epoch < t.issueEpoch
	fenced := w.p.fenced
	acts := w.event(name, func(now time.Time) []action { return w.p.result(now, r.from, r.env) })
	settled := false
	for _, a := range acts {
		settled = settled || a.kind == actSettle
	}
	if stale && (settled || w.p.fenced != fenced+1) {
		w.fatalf("reply for task %d at epoch %d below its issue epoch %d: settled=%v fenced %d→%d",
			r.env.ID, r.env.Epoch, t.issueEpoch, settled, fenced, w.p.fenced)
	}
	if !stale && w.p.fenced != fenced {
		w.fatalf("reply for task %d at epoch %d fenced", r.env.ID, r.env.Epoch)
	}
}

// ping delivers a ping from sw and checks that a worker the ring held
// dead, or one with a new boot nonce, raises the epoch.
func (w *world) ping(sw *simWorker) {
	if !sw.up || sw.cut {
		return
	}
	rejoin := !w.p.alive(sw.id, w.now) || w.p.lastBoot[sw.id] != 0 && w.p.lastBoot[sw.id] != sw.boot
	epoch := w.p.epoch
	w.event(fmt.Sprintf("ping%d", sw.id), func(now time.Time) []action {
		return w.p.ping(now, sw.id, &Envelope{Kind: KindPing, Boot: sw.boot, Addr: sw.addr})
	})
	if rejoin && w.p.epoch <= epoch {
		w.fatalf("worker %d rejoined and the epoch stayed %d", sw.id, w.p.epoch)
	}
}

// tick advances the clock a quarter timeout and ticks, checking that a
// reissue never returns to the worker it left while another is live.
func (w *world) tick() {
	w.now = w.now.Add(exploreTimeout / 4)
	prev := make(map[uint64]int, len(w.p.pending))
	for id, t := range w.p.pending {
		prev[id] = t.to
	}
	acts := w.event("tick", w.p.tick)
	for _, a := range acts {
		if a.kind == actReissue && w.live() > 1 && a.to == prev[a.env.ID] {
			w.fatalf("task %d reissued back to worker %d with %d workers live", a.env.ID, a.to, w.live())
		}
	}
	w.checkFallback(acts)
}

// answer lets sw compute one of its queued tasks; the reply goes on the
// wire.
func (w *world) answer(sw *simWorker, i int) {
	env := sw.queue[i]
	sw.queue = append(sw.queue[:i], sw.queue[i+1:]...)
	r := w.leaf.eval(w.t, env)
	w.replies = append(w.replies, reply{from: sw.id, env: &Envelope{
		Kind: KindResult, ID: env.ID, Epoch: env.Epoch, Value: r.Value, Best: r.Best, Nodes: r.Nodes,
	}})
}

// localDone finishes one fallback-pool task.
func (w *world) localDone(i int) {
	t := w.locals[i]
	w.locals = append(w.locals[:i], w.locals[i+1:]...)
	r := w.leaf.eval(w.t, t.env)
	res := &Envelope{Kind: KindResult, ID: t.env.ID, Value: r.Value, Best: r.Best, Nodes: r.Nodes}
	w.checkFallback(w.event("local", func(now time.Time) []action { return w.p.localResult(now, t, res, nil) }))
}

// restart replaces sw's process: a new boot nonce, an empty queue, and
// on a new address when moved.
func (w *world) restart(sw *simWorker, moved bool) {
	w.nextBoot++
	sw.up, sw.boot, sw.queue = true, w.nextBoot, nil
	if moved {
		sw.addr = fmt.Sprintf("w%d:%d", sw.id, 7000+w.nextBoot)
	}
}

func (w *world) pick(n int) int { return w.rng.Intn(n) }

// random plays one generated event; it returns false when the drawn
// event has nothing to act on.
func (w *world) random() bool {
	sw := w.workers[w.pick(len(w.workers))]
	switch r := w.pick(200); {
	case r < 44: // a worker answers a queued task
		if !sw.up || len(sw.queue) == 0 {
			return false
		}
		w.answer(sw, w.pick(len(sw.queue)))
	case r < 88: // a reply arrives
		if len(w.replies) == 0 {
			return false
		}
		i := w.pick(len(w.replies))
		rp := w.replies[i]
		w.replies = append(w.replies[:i], w.replies[i+1:]...)
		w.deliver(rp, "result")
	case r < 96: // a reply arrives twice
		if len(w.replies) == 0 {
			return false
		}
		w.deliver(w.replies[w.pick(len(w.replies))], "duplicate")
	case r < 104: // a reply from below a task's issue epoch
		var stale []*pendingTask
		for _, t := range w.p.pending {
			if t.issueEpoch > 1 {
				stale = append(stale, t)
			}
		}
		if len(stale) == 0 {
			return false
		}
		sort.Slice(stale, func(i, j int) bool { return stale[i].env.ID < stale[j].env.ID })
		t := stale[w.pick(len(stale))]
		w.deliver(reply{from: t.to, env: &Envelope{Kind: KindResult, ID: t.env.ID, Epoch: t.issueEpoch - 1, Value: 1 << 20}}, "stale")
	case r < 128:
		w.ping(sw)
	case r < 152:
		w.tick()
	case r < 160: // delay: time passes with no tick
		w.now = w.now.Add(time.Duration(1+w.pick(int(exploreTimeout/time.Millisecond))) * time.Millisecond)
		fmt.Fprintf(&w.log, "%d delay\n", w.step)
	case r < 172:
		if len(w.locals) == 0 {
			return false
		}
		w.localDone(w.pick(len(w.locals)))
	case r < 176: // crash
		if !sw.up {
			return false
		}
		sw.up, sw.queue = false, nil
		fmt.Fprintf(&w.log, "%d crash%d\n", w.step, sw.id)
	case r < 182: // rejoin: a crashed worker comes back on its address
		if sw.up {
			return false
		}
		w.restart(sw, false)
		fmt.Fprintf(&w.log, "%d rejoin%d\n", w.step, sw.id)
	case r < 186: // restart on the same address: the transport reports it
		w.restart(sw, false)
		w.event(fmt.Sprintf("restart%d", sw.id), func(now time.Time) []action { return w.p.restarted(now, sw.addr) })
	case r < 190: // restart on a new address: only its pings tell
		w.restart(sw, true)
		fmt.Fprintf(&w.log, "%d move%d %s\n", w.step, sw.id, sw.addr)
	case r < 199: // partition or heal the worker's link
		sw.cut = !sw.cut
		fmt.Fprintf(&w.log, "%d cut%d=%v\n", w.step, sw.id, sw.cut)
	default: // a search gives up on its wave
		var waiting []*search
		for _, s := range w.searches {
			if !s.running {
				waiting = append(waiting, s)
			}
		}
		if len(waiting) == 0 {
			return false
		}
		s := waiting[w.pick(len(waiting))]
		for _, t := range s.wave {
			w.abandoned[t.env.ID] = true
		}
		w.event("abandon", func(now time.Time) []action { return w.p.abandon(now, s.wave) })
		s.running = true
		s.resp <- engine.ErrCancelled
	}
	return true
}

// heal ends the faults and runs the ring until every search has
// finished: every worker up and reachable, every queue answered, every
// reply delivered, every fallback task done.
func (w *world) heal() {
	for _, sw := range w.workers {
		if !sw.up {
			w.restart(sw, false)
		}
		sw.cut = false
	}
	for round := 0; len(w.searches) > 0; round++ {
		if round > 1000 {
			w.fatalf("%d searches still running after the faults healed", len(w.searches))
		}
		for _, sw := range w.workers {
			w.ping(sw)
			for len(sw.queue) > 0 {
				w.answer(sw, 0)
			}
		}
		for len(w.replies) > 0 {
			rp := w.replies[0]
			w.replies = w.replies[1:]
			w.deliver(rp, "result")
		}
		for len(w.locals) > 0 {
			w.localDone(0)
		}
		w.release()
		w.sync(false)
		w.tick()
	}
}

// explore runs one seed for events generated steps, heals the ring, and
// returns the event/action log.
func explore(t *testing.T, seed int64, events int, lc *leafCache, cases []exploreCase) string {
	w := newWorld(t, seed, lc, cases)
	for w.step = 0; w.step < events; w.step++ {
		w.sync(true)
		for tries := 0; !w.random(); tries++ {
			if tries == 8 {
				w.tick()
				break
			}
		}
		w.release()
	}
	w.heal()
	for _, t := range w.placed {
		if n := w.settles[t.env.ID]; n != 1 && !w.abandoned[t.env.ID] {
			w.fatalf("task %d settled %d times, never abandoned", t.env.ID, n)
		}
	}
	if len(w.p.pending) != 0 {
		w.fatalf("%d tasks pending after every search finished", len(w.p.pending))
	}
	return w.log.String()
}

// TestProtocolExplorer drives the failure protocol through generated
// interleavings on 2- and 3-worker rings, with and without a fallback
// pool. After every step: every placed task settles at most once (and
// exactly once unless abandoned, checked when the ring heals); no reply
// below its task's issue epoch is folded, and each counts as fenced; a
// task goes to the fallback pool only when no worker is live or its
// reissues exceed the retry budget; no first dispatch lands on a worker
// already at ceil((in-flight+1)/live), and no reissue returns to the
// worker it left while another is live; the epoch never decreases and a
// rejoin raises it; and every search that is not cancelled or
// quarantined folds engine.Search's root through cascade.
func TestProtocolExplorer(t *testing.T) {
	seeds, events := 200, 200
	if testing.Short() {
		seeds = 40
	}
	lc := &leafCache{pool: engine.NewPool(1, nil, nil), memo: make(map[string]engine.Result)}
	defer lc.pool.Close()
	var cases []exploreCase
	for _, c := range []struct {
		game, pos string
		depth     int
	}{
		{"random", "11:3", 4},
		{"ttt", "X...O....", 4},
		{"random", "7:2", 5},
		{"connect4", "33", 3},
		{"random", "42:5", 3},
		{"ttt", "", 3},
	} {
		cases = append(cases, exploreCase{c.game, canonical(t, c.game, c.pos), c.depth, reference(t, c.game, c.pos, c.depth)})
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		explore(t, seed, events, lc, cases)
	}
	// Same seed, same reactions: the log replays byte for byte.
	if a, b := explore(t, 7, events, lc, cases), explore(t, 7, events, lc, cases); a != b {
		t.Fatalf("seed 7 replayed to a different log (%d vs %d bytes)", len(a), len(b))
	}
}
