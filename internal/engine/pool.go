package engine

// This file is the pooled work-stealing execution substrate of the parallel
// cascade. The original engine paid a scheduler tax the paper never
// modeled: a fresh goroutine, channel and searcher struct per speculative
// sibling at every interior node, plus one contended atomic node counter
// bumped on every visit. Here a fixed set of worker goroutines is created
// once per pool — resident across searches for long-lived owners (the
// exported Pool, held by the gtserve service), once per call for the
// one-shot entry points; speculative siblings become tasks pushed onto the
// owning worker's lock-free Chase-Lev deque, idle workers steal from the
// top, and the splitting worker joins by helping (popping its own deque,
// then stealing) until a per-split join counter drains. Beta-cutoff
// cancellation propagates through a per-split abort flag checked at task
// dequeue and every checkMask nodes inside the sequential sub-searches;
// node counts live in per-worker plain counters summed once at the end.
//
// The cascade semantics are unchanged: at every spine node the leftmost
// child is searched first with the full window ("young brothers wait"),
// the remaining siblings run speculatively with the window sharpened by
// completed siblings, and sibling results are merged in completion order
// until a cutoff. The search itself is the generic search (engine.go), the
// same body Search runs on a bare searcher; this file only supplies what
// it needs to split: the deque, the split point, and the join.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gametree/internal/telemetry"
)

// task is one speculative sibling search, embedded in its split point's
// task slab so a split costs O(1) allocations, not O(branching). Its node
// is a Node pointing into the splitting worker's child buffer, which stays
// checked out until the split's join drains.
// fn-tasks are the second task kind (fanout): instead of a sibling
// position they carry a function run with the executing worker — the hook
// other engines (the proof-number solver) use to borrow the resident
// worker set without duplicating the park/steal machinery.
type task struct {
	sp    *splitPoint
	node  valueNode
	idx   int // move index at the split node
	depth int // remaining depth for the child search
	fn    func(w *worker)
}

// splitPoint coordinates the speculative siblings of one spine node: the
// join counter the parent blocks on, the shared (monotonically raised)
// alpha that sharpens later siblings' windows, and the abort flag that
// propagates a beta cutoff to tasks still queued or running.
type splitPoint struct {
	up      *splitPoint  // enclosing split, for chained abort checks
	shared  atomic.Int64 // freshest alpha, read once at task start
	pending atomic.Int32 // tasks not yet finished or skipped
	abort   atomic.Bool  // set on beta cutoff; never cleared while live

	mu      sync.Mutex
	beta    int64
	alpha   int64 // current sharpened alpha (mirrors the sequential loop)
	best    int64
	bestIdx int

	// Telemetry (nil/zero when the search is uninstrumented): the pool's
	// recorder, the span-open timestamp, and the moment the beta cutoff
	// was raised (read by the joining owner after pending drains — the
	// seq-cst pending counter orders that read after the write).
	rec    *telemetry.Recorder
	openNs int64
	cutNs  int64

	tasks []task
}

// aborted reports whether this split or any enclosing one has been cut.
func (sp *splitPoint) aborted() bool {
	for s := sp; s != nil; s = s.up {
		if s.abort.Load() {
			return true
		}
	}
	return false
}

// complete merges one finished sibling. Results are merged in completion
// order and ignored once a cutoff has been found. ok is false for
// siblings that were skipped or interrupted; their (partial) values must
// not be merged.
func (sp *splitPoint) complete(idx int, v int64, ok bool) {
	if ok {
		sp.mu.Lock()
		if !sp.abort.Load() {
			if v > sp.best {
				sp.best = v
				sp.bestIdx = idx
			}
			if sp.best > sp.alpha {
				sp.alpha = sp.best
				sp.shared.Store(sp.alpha)
			}
			if sp.alpha >= sp.beta {
				sp.abort.Store(true) // pre-empt the remaining siblings
				if sp.rec != nil {
					sp.cutNs = sp.rec.Now() // abort-to-drain latency start
				}
			}
		}
		sp.mu.Unlock()
	}
	sp.pending.Add(-1)
}

// ---------------------------------------------------------------------------
// Chase-Lev work-stealing deque

// taskRing is the growable circular buffer behind a deque. Stale rings stay
// reachable by in-flight steals; the GC reclaims them.
type taskRing struct {
	mask int64
	slot []atomic.Pointer[task]
}

func newTaskRing(capacity int64) *taskRing {
	return &taskRing{mask: capacity - 1, slot: make([]atomic.Pointer[task], capacity)}
}

func (r *taskRing) get(i int64) *task    { return r.slot[i&r.mask].Load() }
func (r *taskRing) put(i int64, t *task) { r.slot[i&r.mask].Store(t) }

// deque is a lock-free work-stealing deque (Chase & Lev 2005): the owner
// pushes and pops at the bottom (LIFO, preserving the sequential move
// order), thieves steal from the top (FIFO, taking the most speculative
// siblings first). Go's sync/atomic operations are sequentially
// consistent, which the bottom/top handshake in pop relies on.
type deque struct {
	top    atomic.Int64
	bottom atomic.Int64
	buf    atomic.Pointer[taskRing]
}

func (d *deque) init() { d.buf.Store(newTaskRing(64)) }

// push appends a task at the bottom. Owner-only.
func (d *deque) push(t *task) {
	b := d.bottom.Load()
	tp := d.top.Load()
	r := d.buf.Load()
	if b-tp > r.mask {
		grown := newTaskRing(2 * (r.mask + 1))
		for i := tp; i < b; i++ {
			grown.put(i, r.get(i))
		}
		d.buf.Store(grown)
		r = grown
	}
	r.put(b, t)
	d.bottom.Store(b + 1)
}

// pop removes the most recently pushed task. Owner-only.
func (d *deque) pop() *task {
	b := d.bottom.Load() - 1
	d.bottom.Store(b)
	tp := d.top.Load()
	if tp > b {
		// Empty: restore the canonical state.
		d.bottom.Store(tp)
		return nil
	}
	t := d.buf.Load().get(b)
	if tp == b {
		// Last element: race against a thief for it.
		if !d.top.CompareAndSwap(tp, tp+1) {
			t = nil
		}
		d.bottom.Store(tp + 1)
	}
	return t
}

// steal removes the oldest task. Safe from any goroutine. sawWork
// reports whether the deque was ever observed non-empty — it separates
// "victim had nothing" from a real steal attempt, so the telemetry's
// steal-efficiency ratio measures contention, not idle spinning. retries
// counts the CAS rounds lost to other thieves (or the owner's pop) before
// this attempt resolved; its distribution is the HistStealRetries family.
func (d *deque) steal() (t *task, sawWork bool, retries int64) {
	for {
		tp := d.top.Load()
		b := d.bottom.Load()
		if tp >= b {
			return nil, sawWork, retries
		}
		sawWork = true
		t = d.buf.Load().get(tp)
		if d.top.CompareAndSwap(tp, tp+1) {
			return t, true, retries
		}
		// Lost the race; re-read indices and try again.
		retries++
	}
}

// ---------------------------------------------------------------------------
// Worker pool

// worker is one pool member. It embeds a searcher, so the one search body
// (with its transposition table, scratch move buffers and plain node
// counter) runs unchanged on pool workers; the pad keeps the thief-
// contended deque words off the cache line of the owner-hot counter.
type worker struct {
	searcher
	pool   *pool
	id     int
	spFree []*splitPoint
	_      [64]byte // separate owner-hot fields from the stolen-from deque
	dq     deque
	rng    uint64
}

// idleSpin is the longest an idle helper spins before it parks, and the
// longest gap between two searches that keeps a pool hot. It is sized
// from the park→wake round trip of a helper whose waker keeps running
// (70 µs p10, 73 µs p50 on a 2-vCPU Xeon, go1.24) and sits just under it,
// so a helper never spins longer than a wake would have cost.
const idleSpin = 50 * time.Microsecond

// pool is a resident worker set. The goroutine calling runSearch becomes
// worker 0 for that search; workers 1..n-1 run idleLoop for the pool's
// whole lifetime, spinning while a search is active and parking on a
// condition variable between searches (after a short spin if the pool is
// hot), so an idle resident pool costs nothing. One-shot callers
// (SearchOpt and the drivers) build a pool, search and close it — the
// construction cost they pay is exactly what the exported Pool amortizes
// across requests.
type pool struct {
	workers []*worker
	eager   bool                // tests only: split at every node, ignoring the demand gate
	rec     *telemetry.Recorder // nil when the search is uninstrumented
	stop    atomic.Bool         // current search cancelled or a worker panicked
	active  atomic.Bool         // a search is in flight; idle helpers pop, steal or yield
	hot     atomic.Bool         // the last search began within idleSpin of the one before
	closed  atomic.Bool         // pool shut down; helpers exit
	ended   time.Time           // when the last search ended; runSearch only (its callers serialize it)

	parkMu   sync.Mutex // guards the active/closed transitions helpers wait on
	parkCond *sync.Cond
	wg       sync.WaitGroup // helper goroutines

	failMu  sync.Mutex
	failure error // first recovered panic, wrapped in ErrSearchPanic
}

// fail records the first worker panic and aborts the search. Setting the
// stop flag pre-empts every queued task (runTask's skip path completes
// them with ok=false), so open joins drain and finish returns normally;
// the panic surfaces as an error from the search entry point instead of
// killing the worker goroutine — and with it the process.
func (p *pool) fail(v any) {
	p.failMu.Lock()
	if p.failure == nil {
		p.failure = fmt.Errorf("%w: %v", ErrSearchPanic, v)
	}
	p.failMu.Unlock()
	p.stop.Store(true)
}

// err returns the first recorded worker panic, if any. Call after finish:
// the pool has quiesced, so no later fail can race the read.
func (p *pool) err() error {
	p.failMu.Lock()
	defer p.failMu.Unlock()
	return p.failure
}

// newPool builds a resident pool with the caller of runSearch as worker 0
// and launches the helper goroutines, which immediately park. shardBase
// offsets the telemetry shard indices so several pools can share one
// recorder without overlapping single-writer shards (the serve layer runs
// pool k on shards [k*workers, (k+1)*workers)).
func newPool(workers int, table *Table, rec *telemetry.Recorder, shardBase int) *pool {
	if workers <= 0 {
		workers = defaultWorkers()
	}
	p := &pool{workers: make([]*worker, workers), rec: rec}
	p.parkCond = sync.NewCond(&p.parkMu)
	for i := range p.workers {
		w := &worker{pool: p, id: i, rng: uint64(shardBase+i)*0x9e3779b97f4a7c15 + 1}
		w.own = w
		w.table = table
		w.stop = &p.stop
		w.tm = rec.Shard(shardBase + i) // nil when rec is nil
		w.dq.init()
		p.workers[i] = w
	}
	for _, w := range p.workers[1:] {
		p.wg.Add(1)
		go func(w *worker) {
			defer p.wg.Done()
			p.idleLoop(w)
		}(w)
	}
	return p
}

// runSearch executes one search on the resident pool, with the calling
// goroutine as worker 0 driving body (the spine of the cascade, or a
// fanout). Calls must be serialized by the owner — the exported Pool
// holds a mutex across it; the one-shot entry points and the drivers call
// it from one goroutine.
//
// Reading the per-worker node counters here without waiting for the
// helpers is safe: body returns only after every split point it opened
// has joined, so each helper's last counter write happens-before the
// owner's pending.Load()==0 (both sequentially consistent atomics) and
// the helpers hold no task: they only pop, steal and yield until active
// drops, and then spin or park in idleLoop, touching no search state.
//
// Worker 0 also times the gap since the previous search ended: a gap
// shorter than idleSpin marks the pool hot, so its helpers spin through
// the next gap instead of parking (see idleLoop).
func (p *pool) runSearch(ctx context.Context, body func(w0 *worker) (int64, int)) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, cancelErr(err)
	}
	p.stop.Store(false)
	p.failMu.Lock()
	p.failure = nil
	p.failMu.Unlock()

	var watchWG sync.WaitGroup
	watch := make(chan struct{})
	if done := ctx.Done(); done != nil {
		watchWG.Add(1)
		go func() {
			defer watchWG.Done()
			select {
			case <-done:
				p.stop.Store(true)
			case <-watch:
			}
		}()
	}
	if len(p.workers) > 1 {
		p.hot.Store(time.Since(p.ended) < idleSpin)
		p.parkMu.Lock()
		p.active.Store(true)
		p.parkMu.Unlock()
		p.parkCond.Broadcast()
	}

	var v int64
	var best int
	// Worker 0's spine runs on the caller's stack, outside runTask's
	// recover, so a panic under an eldest child unwinds to here. Splits are
	// opened and joined within a single search frame, so at any point of
	// the eldest-first descent no ancestor frame holds an undrained split —
	// failing the pool and returning is a clean teardown.
	func() {
		defer func() {
			if r := recover(); r != nil {
				p.fail(r)
			}
		}()
		v, best = body(p.workers[0])
	}()

	close(watch)
	watchWG.Wait()
	p.active.Store(false)
	if len(p.workers) > 1 {
		p.ended = time.Now()
	}
	var nodes int64
	for _, w := range p.workers {
		nodes += w.nodes
		if w.tm != nil {
			w.tm.Nodes.Add(w.nodes) // fold in at the quiesce point
		}
		w.nodes = 0    // the pool outlives the search; counters are per search
		w.halt = false // likewise the cancellation latch
		w.order = w.order[:0]
		for _, b := range w.bufs {
			b.reset()
		}
	}
	if err := p.err(); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, cancelErr(err)
	}
	return Result{Value: int32(v), Best: best, Nodes: nodes}, nil
}

// cancelErr maps a non-nil ctx.Err() to the search error contract: plain
// cancellation keeps the bare ErrCancelled sentinel (existing callers
// compare with ==), while a deadline expiry additionally carries
// context.DeadlineExceeded in the wrap chain so callers can tell a
// timed-out search — whose partial Result must not be trusted — from an
// explicit cancel. errors.Is(err, ErrCancelled) matches both.
func cancelErr(ctxErr error) error {
	if errors.Is(ctxErr, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrCancelled, context.DeadlineExceeded)
	}
	return ErrCancelled
}

// close shuts the resident pool down: helpers are woken if parked and
// exit their loops. Must not be called concurrently with runSearch.
func (p *pool) close() {
	p.parkMu.Lock()
	p.closed.Store(true)
	p.parkMu.Unlock()
	p.parkCond.Broadcast()
	p.wg.Wait()
}

// idleLoop is the life of workers 1..n-1. While a search is active a
// helper only spins: it pops, steals, or yields with runtime.Gosched, and
// never sleeps — a timer nap here costs a millisecond, several whole
// searches on a fast game. When the search ends, a helper of a cold pool
// parks at once; a helper of a hot pool (back-to-back searches, see
// runSearch) first spins for up to idleSpin, so the next search finds it
// awake, and parks only if none comes. Parked helpers cost nothing. The
// active flag is re-checked under parkMu, and runSearch raises it under
// the same lock before broadcasting, so a wakeup cannot be lost.
func (p *pool) idleLoop(w *worker) {
	for !p.closed.Load() {
		if !p.active.Load() {
			if !p.hot.Load() || !p.spinForSearch() {
				p.park(w)
			}
			continue
		}
		t := w.dq.pop()
		if t == nil {
			t = p.trySteal(w)
		}
		if t != nil {
			w.runTask(t)
			continue
		}
		runtime.Gosched()
	}
}

// spinForSearch yields for up to idleSpin while the pool is idle and
// reports whether a search started (or the pool closed) in that time.
func (p *pool) spinForSearch() bool {
	deadline := time.Now().Add(idleSpin)
	for !p.active.Load() && !p.closed.Load() {
		if time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// park blocks the helper on the condition variable until the next
// broadcast (a search starting, or the pool closing), counting the park in
// the helper's telemetry shard. It returns after one wake even if that
// search has already ended, so idleLoop re-decides: a hot pool's helper
// then spins for the next search instead of parking again — otherwise a
// stream of searches shorter than a wake would never catch it awake.
func (p *pool) park(w *worker) {
	p.parkMu.Lock()
	if !p.active.Load() && !p.closed.Load() {
		if w.tm != nil {
			w.tm.Parks.Add(1)
		}
		p.parkCond.Wait()
	}
	p.parkMu.Unlock()
}

// trySteal scans the other workers' deques once, starting at a random
// victim so thieves do not convoy on worker 0.
func (p *pool) trySteal(w *worker) *task {
	n := len(p.workers)
	if n == 1 {
		return nil
	}
	off := int(w.nextRand() % uint64(n))
	for i := 0; i < n; i++ {
		v := p.workers[(off+i)%n]
		if v == w {
			continue
		}
		t, sawWork, retries := v.dq.steal()
		if w.tm != nil && sawWork {
			w.tm.StealAttempts.Add(1)
			w.tm.Hist[telemetry.HistStealRetries].Observe(retries)
		}
		if t != nil {
			if w.tm != nil {
				w.tm.Steals.Add(1)
				if rec := p.rec; rec.EventsEnabled() {
					rec.RecordEvent(telemetry.Event{
						Ns: rec.Now(), Kind: telemetry.EventSteal,
						Worker: w.id, Depth: t.depth,
					})
				}
			}
			return t
		}
	}
	return nil
}

// nextRand is a xorshift64 step for steal-victim randomization.
func (w *worker) nextRand() uint64 {
	x := w.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	w.rng = x
	return x
}

// runTask executes one speculative sibling, reading the freshest shared
// alpha at start (a stale, wider window only loses sharpness, never
// correctness). The sibling re-enters the search body with the split as
// its enclosing abort scope, so a beta cutoff anywhere above pre-empts
// it, and helpers working a stolen subtree open split points of their own
// (recursive YBWC). Siblings cut or interrupted on the way report
// ok=false so their partial values are never merged.
func (w *worker) runTask(t *task) {
	if t.fn != nil {
		w.runFn(t)
		return
	}
	sp := t.sp
	if w.pool.stop.Load() || sp.aborted() {
		if w.tm != nil {
			w.noteAbort(t) // skipped before running
		}
		sp.complete(t.idx, 0, false)
		return
	}
	var startNs int64
	if w.tm != nil {
		w.tm.Tasks.Add(1)
		startNs = w.pool.rec.Now()
	}
	prev := w.sp
	w.sp = sp
	// Position implementations are user code and may panic mid-search.
	// Confine the blast radius to this task: record the panic on the pool
	// (aborting the search) and complete the sibling with ok=false so the
	// owner's join still drains. Without this a panic on a helper worker
	// would crash the whole process.
	defer func() {
		w.sp = prev
		if r := recover(); r != nil {
			w.pool.fail(r)
			if w.tm != nil {
				w.noteAbort(t)
			}
			sp.complete(t.idx, 0, false)
		}
	}()
	// The child step of the search body's loop, on the split's window. A
	// younger brother is never the eldest, so under pvs it is always
	// tested with a null window first.
	alpha, lo := sp.shared.Load(), -sp.beta
	if w.pvs {
		lo = -alpha - 1
	}
	v, _ := t.node.searchFrom(&w.searcher, t.depth, lo, -alpha)
	v = -v
	if w.pvs && v > alpha && v < sp.beta {
		v, _ = t.node.searchFrom(&w.searcher, t.depth, -sp.beta, -v)
		v = -v
	}
	ok := !w.pool.stop.Load() && !sp.aborted()
	if w.tm != nil {
		w.tm.Hist[telemetry.HistTaskRunNs].Observe(w.pool.rec.Now() - startNs)
		if !ok {
			w.noteAbort(t) // pre-empted mid-search
		}
	}
	sp.complete(t.idx, v, ok)
}

// runFn executes one fanout task with the same panic isolation as the
// speculative siblings: a panic fails the pool (aborting every sibling
// invocation through the stop flag) instead of killing the process, and
// the pending decrement runs regardless so the owner's join drains.
func (w *worker) runFn(t *task) {
	sp := t.sp
	defer func() {
		if r := recover(); r != nil {
			w.pool.fail(r)
		}
		sp.pending.Add(-1)
	}()
	if !w.pool.stop.Load() {
		t.fn(w)
	}
}

// fanout runs fn once per pool worker: worker 0 pushes one fn-task per
// helper onto its deque (the helpers, spinning or woken from their park
// when runSearch raises active, steal them) and runs its own invocation
// in place, then helps until the join drains. fn must poll p.stop (via
// the caller's stop predicate) and return promptly on cancellation;
// runSearch maps a cancelled ctx onto the usual ErrCancelled contract.
func (p *pool) fanout(ctx context.Context, fn func(w *worker)) error {
	_, err := p.runSearch(ctx, func(w0 *worker) (int64, int) {
		if n := len(p.workers); n > 1 {
			sp := &splitPoint{}
			sp.pending.Store(int32(n - 1))
			sp.tasks = make([]task, n-1)
			for i := n - 2; i >= 0; i-- {
				sp.tasks[i] = task{sp: sp, fn: fn}
				w0.dq.push(&sp.tasks[i])
			}
			fn(w0)
			w0.join(sp)
			// The deques' stale slots still point at these tasks: drop fn,
			// and with it whatever it holds (a solver's whole tree).
			clear(sp.tasks)
		} else {
			fn(w0)
		}
		return 0, -1
	})
	return err
}

// noteAbort accounts one aborted task: the plain counter, the nested-abort
// counter when the cutoff came from an *ancestor* split (the chained abort
// rule pre-empting a whole speculative subtree rather than a local
// cutoff), and the structured event log. Only called when w.tm != nil.
func (w *worker) noteAbort(t *task) {
	w.tm.Aborts.Add(1)
	if sp := t.sp; !sp.abort.Load() && sp.aborted() {
		w.tm.NestedAborts.Add(1)
	}
	if rec := w.pool.rec; rec.EventsEnabled() {
		rec.RecordEvent(telemetry.Event{
			Ns: rec.Now(), Kind: telemetry.EventAbort,
			Worker: w.id, Depth: t.depth,
		})
	}
}

// join blocks the splitting worker on the split's counter by helping: pop
// the own deque (the split's own siblings, in move order), then steal, and
// only then yield. Every pending task is either in a deque (some worker
// will run it) or already running, so the loop terminates.
func (w *worker) join(sp *splitPoint) {
	var joinNs int64
	if sp.rec.TraceEnabled() {
		joinNs = sp.rec.Now()
	}
	for sp.pending.Load() > 0 {
		if t := w.dq.pop(); t != nil {
			w.runTask(t)
			continue
		}
		if t := w.pool.trySteal(w); t != nil {
			w.runTask(t)
			continue
		}
		runtime.Gosched()
	}
	if sp.rec == nil {
		return
	}
	// Drained. Record the cutoff-to-drain latency (if a beta cutoff was
	// raised here) and the split's lifetime span.
	if w.tm != nil && sp.cutNs != 0 {
		drainNs := sp.rec.Now() - sp.cutNs
		w.tm.AbortDrains.Add(1)
		w.tm.AbortDrainNs.Add(drainNs)
		w.tm.Hist[telemetry.HistAbortDrainNs].Observe(drainNs)
	}
	if sp.rec.EventsEnabled() && len(sp.tasks) > 0 {
		sp.rec.RecordEvent(telemetry.Event{
			Ns: sp.rec.Now(), Kind: telemetry.EventJoin,
			Worker: w.id, Depth: sp.tasks[0].depth, Tasks: len(sp.tasks),
		})
	}
	if joinNs != 0 {
		sp.rec.RecordSpan(telemetry.Span{
			Worker: w.id, Name: "split",
			Start: sp.openNs, Join: joinNs, End: sp.rec.Now(),
			Tasks: len(sp.tasks), Aborted: sp.abort.Load(),
		})
	}
}

// hungry is the demand gate of the search body, asked before a node's
// younger brothers: split only when there are at least two of them and the
// worker's own deque has drained, so whatever it queued has been claimed
// and a new split point would feed a thief rather than sit behind
// unclaimed tasks. A lone brother is never a split point: a thief that
// takes it leaves the owner idle at the join with nothing of its own to
// search, so two workers run a binary tree slower than one.
func (w *worker) hungry(brothers int) bool {
	return w.pool.eager || brothers > 1 && w.dq.bottom.Load() <= w.dq.top.Load()
}

// splitKids searches every child of a node but its eldest (already
// searched in place, with value best at index eldest) as one split point
// under the current task's abort scope, helps until the join drains, and
// returns the merged best value and move index. The younger brothers are
// kids[order[1:]] — kids[1:] when order is nil — and their tasks are
// pushed in reverse, so the owner's LIFO pops visit them in that order
// while thieves take the least promising ones from the far end; each
// holds a Node pointing into kids and the move index in the position's
// own order.
func splitKids[P Game[P]](w *worker, kids []P, order []int64, depth int, alpha, beta, best int64, eldest int) (int64, int) {
	sp := w.newSplit(alpha, beta, best, eldest, len(kids)-1)
	for k := len(kids) - 1; k > 0; k-- {
		i := k
		if order != nil {
			i = int(order[k])
		}
		sp.tasks[k-1] = task{sp: sp, node: Node[P]{&kids[i]}, idx: i, depth: depth}
		w.dq.push(&sp.tasks[k-1])
	}
	w.noteSplit(sp, depth)
	w.join(sp)
	best, bestIdx := sp.best, sp.bestIdx
	w.releaseSplit(sp)
	return best, bestIdx
}

// newSplit readies a split point with a slab of n tasks.
func (w *worker) newSplit(alpha, beta, best int64, eldest, n int) *splitPoint {
	var sp *splitPoint
	if k := len(w.spFree); k > 0 {
		sp = w.spFree[k-1]
		w.spFree = w.spFree[:k-1]
	} else {
		sp = new(splitPoint)
	}
	sp.up = w.sp
	sp.beta = beta
	sp.alpha = alpha
	sp.best = best
	sp.bestIdx = eldest
	sp.abort.Store(false)
	sp.shared.Store(alpha)
	sp.rec = w.pool.rec
	sp.cutNs = 0
	if sp.rec.TraceEnabled() {
		sp.openNs = sp.rec.Now()
	}
	if cap(sp.tasks) < n {
		sp.tasks = make([]task, n)
	} else {
		sp.tasks = sp.tasks[:n]
	}
	sp.pending.Store(int32(n))
	return sp
}

// noteSplit accounts a split point whose tasks have been pushed; depth is
// the remaining depth of the sibling subtrees.
func (w *worker) noteSplit(sp *splitPoint, depth int) {
	if w.tm == nil {
		return
	}
	w.tm.Splits.Add(1)
	if sp.up != nil {
		w.tm.NestedSplits.Add(1)
	}
	// The split node itself sits one ply above its siblings.
	w.tm.Hist[telemetry.HistSplitDepth].Observe(int64(depth) + 1)
	w.tm.ObserveDeque(w.dq.bottom.Load() - w.dq.top.Load())
	if sp.rec.EventsEnabled() {
		sp.rec.RecordEvent(telemetry.Event{
			Ns: sp.rec.Now(), Kind: telemetry.EventSplitOpen,
			Worker: w.id, Depth: depth, Tasks: len(sp.tasks),
		})
	}
}

// releaseSplit recycles a joined split point. Safe: pending has hit zero,
// so no other worker holds a reference (complete's counter decrement is
// each sibling's final access).
func (w *worker) releaseSplit(sp *splitPoint) {
	clear(sp.tasks) // drop the Nodes, which point into a child buffer
	sp.tasks = sp.tasks[:0]
	sp.up = nil
	sp.rec = nil
	sp.openNs, sp.cutNs = 0, 0
	// Recursive YBWC nests splits (one live per frame of the cascade plus
	// the recycled ones), so the free list is sized for deep nesting, not
	// just the spine's churn.
	if len(w.spFree) < 32 {
		w.spFree = append(w.spFree, sp)
	}
}

// search runs the search body once on the pool, on the window (alpha,
// beta), with worker 0 — the calling goroutine — walking the spine. The
// pvs flag is written before runSearch wakes the helpers and read by them
// only inside tasks, which they reach through the deque's atomics.
func (p *pool) search(ctx context.Context, pos Position, depth int, alpha, beta int64, pvs bool) (Result, error) {
	for _, w := range p.workers {
		w.pvs = pvs
	}
	return p.runSearch(ctx, func(w0 *worker) (int64, int) {
		return w0.root(pos, depth, alpha, beta)
	})
}

// newPool builds the one-shot pool of a non-resident search.
func (opt SearchOptions) newPool() *pool {
	return newPool(opt.Workers, opt.Table, opt.Telemetry, 0)
}
