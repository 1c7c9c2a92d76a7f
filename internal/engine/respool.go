package engine

// Resident search pool: the work-stealing worker set of SearchOpt kept
// alive across searches. A one-shot SearchOpt pays pool construction —
// worker structs, deque rings, helper goroutine spawns — on every call; a
// service handling sustained traffic pays it once per Pool and runs each
// request as a park/wake cycle on warm workers. The transposition table
// is shared by reference, so several Pools over one Table give concurrent
// searches that cross-seed each other's move ordering (the serve layer's
// core configuration).

import (
	"context"
	"errors"
	"sync"

	"gametree/internal/telemetry"
)

// ErrPoolClosed is returned by Pool.Search after Close.
var ErrPoolClosed = errors.New("engine: search pool closed")

// Pool is a resident work-stealing search pool. A Pool runs one search
// at a time — Search serializes callers — so concurrency across requests
// comes from several Pools sharing one Table, not from one Pool.
type Pool struct {
	mu     sync.Mutex
	p      *pool
	table  *Table
	closed bool
}

// NewPool builds a resident pool of workers (0 = GOMAXPROCS) over table
// (nil disables the transposition table) with telemetry shards 0..w-1 of
// rec (nil keeps the pool uninstrumented).
func NewPool(workers int, table *Table, rec *telemetry.Recorder) *Pool {
	return NewPoolShards(workers, table, rec, 0)
}

// NewPoolShards is NewPool with an explicit telemetry shard base: pool k
// of a set sharing one Recorder should pass base k*workers so every
// worker keeps a private single-writer shard.
func NewPoolShards(workers int, table *Table, rec *telemetry.Recorder, shardBase int) *Pool {
	return &Pool{p: newPool(workers, table, rec, shardBase), table: table}
}

// Workers reports the pool's worker count (after the 0 = GOMAXPROCS
// default is applied).
func (rp *Pool) Workers() int { return len(rp.p.workers) }

// Search runs one search on the resident workers, with the calling
// goroutine as worker 0. The table generation is advanced per search,
// mirroring SearchOpt, whose error contract it shares: ErrCancelled on
// ctx cancel, additionally wrapping context.DeadlineExceeded when the
// deadline expired — in both cases the Result is the zero value, never a
// partial search passed off as complete.
func (rp *Pool) Search(ctx context.Context, pos Position, depth int) (Result, error) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if rp.closed {
		return Result{}, ErrPoolClosed
	}
	rp.table.Advance() // nil-safe
	return rp.p.search(ctx, pos, depth, -scoreInf, scoreInf, false)
}

// Fanout runs fn concurrently on the resident workers — the hook that
// lets other engines (the proof-number solver) borrow the pool's warm
// worker set. fn is invoked with the executing worker's id, that
// worker's telemetry shard (nil when the pool is uninstrumented; shards
// are single-writer, and Fanout is serialized against Search, so fn may
// write them freely) and a stop predicate that turns true when ctx is
// cancelled or a sibling invocation panicked; fn must poll it and return
// promptly. Worker 0 runs on the calling goroutine and may execute more
// than one invocation (helping), so fn must be safe to run repeatedly.
// The error contract matches Search: ErrCancelled (wrapping
// context.DeadlineExceeded on timeout) or ErrSearchPanic.
func (rp *Pool) Fanout(ctx context.Context, fn func(id int, tm *telemetry.Shard, stopped func() bool)) error {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if rp.closed {
		return ErrPoolClosed
	}
	rp.table.Advance() // nil-safe
	stopped := func() bool { return rp.p.stop.Load() }
	return rp.p.fanout(ctx, func(w *worker) {
		fn(w.id, w.tm, stopped)
	})
}

// Close shuts the helper goroutines down. Idempotent; Search returns
// ErrPoolClosed afterwards.
func (rp *Pool) Close() {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if rp.closed {
		return
	}
	rp.closed = true
	rp.p.close()
}
