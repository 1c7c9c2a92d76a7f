// Package engine is the practical, wall-clock-parallel counterpart of the
// paper's step-model algorithms: a goroutine-based game evaluator for real
// games exposed through the Position interface.
//
// The parallel search uses the paper's central idea — spend extra
// processors on the nodes a left-to-right sequential search would reach
// soonest — in its engineering form: at every node the first (leftmost)
// successor is searched before the others ("young brothers wait", the
// cascade of Section 2's P-SOLVE), and the remaining successors are then
// searched concurrently with the window established by the first. A
// speculative sibling search is aborted when a cutoff is found, mirroring
// the pre-emption rule of Section 7.
//
// There is one recursive search body (search), generic over the position
// type: a game plugs in as a Position or, allocation-free, as a value
// type implementing Game (game.go). Search runs it on a bare searcher;
// every other entry point runs it on a fixed pool of worker goroutines
// with per-worker work-stealing deques (see pool.go), where the same body
// turns a node's younger brothers into one split point when thieves are
// hungry. SearchIterative, MTDF and SearchPVS are
// drivers over that body (drivers.go), in the sense of Plaat et al.:
// loops of windowed calls to one memory-enhanced alpha-beta.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"

	"gametree/internal/telemetry"
)

// Position is a game state. Implementations must be immutable values:
// Moves returns successor states and must not mutate the receiver.
type Position interface {
	// Moves returns the legal successor positions in preference order.
	// An empty slice means the position is terminal.
	Moves() []Position
	// Evaluate returns a static score from the perspective of the side
	// to move (negamax convention). It is called at terminal positions
	// and at the depth horizon, and, in a table search, on each child of
	// a node that keys the table, to order the children best first for
	// the parent's mover (lowest score first).
	Evaluate() int32
}

// MoveAppender is an optional Position interface: implementations append
// their successors to dst (reusing its capacity) instead of allocating a
// fresh slice per call, letting the engine recycle per-worker move
// buffers on the hot path. AppendMoves must behave exactly like Moves.
// The successors themselves are still boxed Positions; a game that must
// not allocate per node implements Game instead.
type MoveAppender interface {
	AppendMoves(dst []Position) []Position
}

// Result reports the outcome of a search.
type Result struct {
	Value int32 // negamax value of the root (side to move's perspective)
	Best  int   // index of the best root move; -1 for terminal/depth-0 roots
	Nodes int64 // positions visited
}

// ErrCancelled is returned when the context is cancelled mid-search.
var ErrCancelled = errors.New("engine: search cancelled")

// ErrSearchPanic is returned (wrapped, with the recovered value) when a
// Position implementation panics inside a pooled search. The panic is
// confined to the worker that hit it: the pool aborts, every join drains,
// and the helper goroutines exit cleanly instead of crashing the process.
var ErrSearchPanic = errors.New("engine: panic during search")

const (
	winScore  = int32(1 << 24) // larger than any heuristic score
	scoreInf  = int64(math.MaxInt32)
	checkMask = 255 // interrupt poll frequency in nodes

	// splitHorizon is the remaining depth at or below which a subtree is
	// plain alpha-beta: no split point, no table key, probe or store.
	// Scheduling a task, or a probe's DRAM miss, costs more than a 2-ply
	// subtree can save.
	splitHorizon = 2
)

// SearchOptions configures every search entry point but Search.
type SearchOptions struct {
	// Table, when non-nil, enables transposition-table probing and
	// storing at nodes above the split horizon: more than two plies to
	// go, or no depth horizon. Only positions that may transpose use it: a
	// value game whose Key reports ok, or a Position that implements
	// Hasher and has no Key method saying otherwise. A game that never
	// transposes (RandomTree) searches as if Table were nil.
	Table *Table
	// Workers is the size of the worker pool; 0 means GOMAXPROCS. With 1
	// the whole search runs on the calling goroutine and, table or not,
	// visits exactly the nodes a sequential search visits.
	Workers int
	// Telemetry, when non-nil, attaches the search to a telemetry
	// recorder: per-worker counters (tasks, steals, splits, aborts, TT
	// traffic, deque depth) and — if the recorder has tracing enabled —
	// split-point lifetime spans. Nil keeps the hot path uninstrumented
	// (one nil-check branch per event).
	Telemetry *telemetry.Recorder
}

// Search evaluates the position to the given depth with sequential
// alpha-beta (negamax form): the search body on a bare searcher, with no
// table, no pool and no context. depth < 0 means no horizon.
func Search(pos Position, depth int) Result {
	e := &searcher{}
	v, best := e.root(pos, depth, -scoreInf, scoreInf)
	return Result{Value: int32(v), Best: best, Nodes: e.nodes}
}

// SearchOpt evaluates the position to the given depth on a one-shot pool
// of opt.Workers workers, with the calling goroutine as worker 0, and
// returns the same value as Search. With a table, Best among equal-valued
// root moves may be the table's move rather than the leftmost.
//
// Error contract, shared by the drivers and Pool.Search: a search cut
// short by ctx never returns a partial Result as if complete — the Result
// is the zero value and the error is ErrCancelled, wrapping
// context.DeadlineExceeded when the ctx deadline (rather than an explicit
// cancel) ended the search; a panicking Position surfaces as
// ErrSearchPanic. Long-lived callers should hold a Pool instead and
// amortize the pool construction.
func SearchOpt(ctx context.Context, pos Position, depth int, opt SearchOptions) (Result, error) {
	return opt.searchOnce(ctx, pos, depth, false)
}

// searchOnce is one full-window search on a one-shot pool.
func (opt SearchOptions) searchOnce(ctx context.Context, pos Position, depth int, pvs bool) (Result, error) {
	p := opt.newPool()
	defer p.close()
	opt.Table.Advance() // nil-safe
	return p.search(ctx, pos, depth, -scoreInf, scoreInf, pvs)
}

// searcher is the search state of one goroutine: the node counter is a
// plain per-worker integer (summed by the pool at the end, never
// contended), bufs recycles child buffers, one stack per position type,
// and stop/sp carry the pool's cancellation flag and the abort chain
// of the current speculative task. A searcher with no worker behind it
// (own == nil, the bare searcher of Search) never splits and is never
// interrupted.
type searcher struct {
	own   *worker          // the pool worker embedding this searcher, if any
	table *Table           // optional shared transposition table
	stop  *atomic.Bool     // pooled: set when the search is cancelled or a worker panicked
	sp    *splitPoint      // pooled: abort chain of the current task
	tm    *telemetry.Shard // optional telemetry shard (this worker's, single-writer)
	nodes int64
	pvs   bool        // null-window test + re-search on every child but the eldest
	halt  bool        // latched by interrupted(): unwind every node, not 1-in-256
	bufs  []bufferSet // child buffers, one *buffers[P] per position type searched
	order []int64     // visiting orders of the table nodes on the recursion stack
}

func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// interrupted reports whether this searcher should unwind: the pool's
// cancellation flag (one uncontended atomic load) or an aborted enclosing
// split. Below the split horizon it is polled every checkMask nodes; the
// stop flag latches e.halt so that once tripped, EVERY subsequent node
// entry returns immediately. Without the latch a poll only prunes the
// single node it fires on and the siblings keep expanding — on a deep
// lazily-generated tree the unwind would take longer than the search it
// is cancelling. Split aborts are deliberately not latched: they end one
// speculative subtree, not the whole search.
func (e *searcher) interrupted() bool {
	if e.halt {
		return true
	}
	if e.stop != nil && e.stop.Load() {
		e.halt = true
		return true
	}
	return e.sp.aborted()
}

// root searches pos with the body's instantiation for its type: a Node's
// position type, else the Position adapter.
func (e *searcher) root(pos Position, depth int, alpha, beta int64) (int64, int) {
	if n, ok := pos.(valueNode); ok {
		return n.searchFrom(e, depth, alpha, beta)
	}
	return Node[posNode]{&posNode{pos}}.searchFrom(e, depth, alpha, beta)
}

// search is the one search body: alpha-beta in negamax form, returning
// the value of pos and the index (in pos's own move order) of the move
// that achieved it. Successors are generated into a buffer from b and
// searched in place, by pointer; a leaf parent scores its leaves with
// Evaluate in the same frame. When the searcher carries a transposition
// table, the position may transpose (its Key reports ok) and the node is
// above the split horizon, sufficient-depth entries cut off immediately;
// otherwise the stored best move is tried first and the other children
// follow best static score first (orderKids). Everywhere else the children
// go in the position's own order. The eldest
// child is always searched in place; the younger brothers follow in place
// too, unless this is a pool worker above the split horizon whose own
// deque has drained, in which case they become one split point that idle
// workers steal from and this worker joins (pool.go). With e.pvs every
// child but the eldest is first tested with a null window and re-searched
// only if the test fails high inside an open window.
//
// A subtree that was interrupted — the pool stopped, or an enclosing split
// was aborted — returns garbage and stores nothing in the table; whoever
// started it discards the value (runTask completes with ok=false,
// runSearch returns the zero Result).
func search[P Game[P]](e *searcher, b *buffers[P], pos *P, depth int, alpha, beta int64) (int64, int) {
	e.nodes++
	// Above the horizon a node heads a whole subtree, so it may pay the
	// per-node overheads: a pool worker may turn it into a split point,
	// and a table search keys, probes and stores it. At or below the
	// horizon a subtree is plain alpha-beta: a probe there is a DRAM miss
	// that can save at most a few Evaluate calls. Split nodes with a
	// horizon below them are few, so they poll for interruption on every
	// visit; every other node polls 1 in checkMask.
	above := depth < 0 || depth > splitHorizon
	split := above && e.own != nil
	if (split && depth > 0 || e.halt || e.nodes&checkMask == 0) && e.interrupted() {
		return alpha, -1
	}
	if depth == 0 {
		return int64((*pos).Evaluate()), -1
	}
	buf := b.get()
	kids := (*pos).Children(buf)
	if len(kids) == 0 {
		b.put(buf, kids)
		return int64((*pos).Evaluate()), -1
	}
	if depth == 1 {
		// A leaf parent scores its leaves in place instead of entering the
		// body for each. Each is one node, polled as at a node entry, and
		// the window cannot change its value, so PVS has nothing to
		// re-search.
		best, bestIdx := -scoreInf, -1
		for i := range kids {
			e.nodes++
			if (e.halt || e.nodes&checkMask == 0) && e.interrupted() {
				best, bestIdx = beta, i // the leaf fails high, as at a node entry
				break
			}
			if v := -int64(kids[i].Evaluate()); v > best {
				best, bestIdx = v, i
			}
			if best > alpha {
				alpha = best
			}
			if alpha >= beta {
				break
			}
		}
		b.put(buf, kids)
		return best, bestIdx
	}

	var hash uint64
	hashed := false
	if e.table != nil && above { // a table-less search never asks for a key
		hash, hashed = (*pos).Key()
	}
	// order is the visiting order of a table node's children, eldest first;
	// nil elsewhere, where the children are visited in the position's own
	// order.
	var order []int64
	if hashed {
		if e.tm != nil {
			e.tm.TTProbes.Add(1)
			e.tm.Hist[telemetry.HistTTProbeDepth].Observe(int64(depth))
		}
		ttBest := -1
		if v, d, flag, tb, hit := e.table.Probe(hash); hit {
			if e.tm != nil {
				e.tm.TTHits.Add(1)
			}
			if tb >= 0 && tb < len(kids) {
				ttBest = tb
			}
			if d >= depth {
				switch flag {
				case BoundExact:
					alpha, beta = int64(v), int64(v)
				case BoundLower:
					alpha = max(alpha, int64(v))
				case BoundUpper:
					beta = min(beta, int64(v))
				}
				if alpha >= beta {
					b.put(buf, kids)
					return int64(v), ttBest
				}
			}
		}
		order = orderKids(e, kids, ttBest)
	}
	alpha0 := alpha

	best, bestIdx := -scoreInf, -1
	for j := 0; j < len(kids); j++ {
		// A pool worker above the horizon, before each younger brother:
		// unwind if the previous child was interrupted (its value is
		// garbage), and, once the eldest is back, decide whether the brothers
		// become a split point.
		//
		// Splitting pays deque, join and merge machinery per sibling, so it
		// is demand-driven: a worker opens a split point only when its own
		// deque has drained — thieves took everything queued (or nothing was
		// ever queued: the spine) — and never for a lone younger brother,
		// which a thief would take while the owner waits at the join. A
		// worker still holding queued tasks has already exposed unclaimed
		// parallelism, so it searches the siblings in place instead; the
		// recursion re-checks at every node, so the subtree starts
		// splitting again the moment the queue empties.
		// Without this gate every interior node above the horizon pays the
		// split overhead and recursive splitting loses ~30% wall clock to
		// splitting on the spine alone; with it, split points track steal
		// demand.
		if split && j > 0 {
			if e.interrupted() {
				break
			}
			if j == 1 && e.own.hungry(len(kids)-1) {
				best, bestIdx = splitKids(e.own, kids, order, depth-1, alpha, beta, best, bestIdx)
				break
			}
		}
		// The mapping never reorders kids, which the position may own.
		i := j
		if order != nil {
			i = int(order[j])
		}
		lo := -beta
		if e.pvs && j > 0 {
			lo = -alpha - 1 // null-window test: is this move better than alpha?
		}
		v, _ := search(e, b, &kids[i], depth-1, lo, -alpha)
		v = -v
		if e.pvs && j > 0 && v > alpha && v < beta {
			// Fail high inside an open window: re-search exactly.
			v, _ = search(e, b, &kids[i], depth-1, -beta, -v)
			v = -v
		}
		if v > best {
			best, bestIdx = v, i
		}
		if best > alpha {
			alpha = best
		}
		if alpha >= beta {
			break
		}
	}
	if hashed && !e.interrupted() {
		flag := BoundExact
		switch {
		case best <= alpha0:
			flag = BoundUpper
		case best >= beta:
			flag = BoundLower
		}
		evicted := e.table.Store(hash, int32(best), depth, flag, bestIdx)
		if e.tm != nil {
			e.tm.TTStores.Add(1)
			if evicted {
				e.tm.TTEvictions.Add(1)
			}
			if flag == BoundLower {
				e.tm.TableCuts.Add(1)
				if bestIdx == int(order[0]) {
					e.tm.EldestCuts.Add(1)
				}
			}
		}
	}
	if hashed {
		e.order = e.order[:len(e.order)-len(kids)]
	}
	b.put(buf, kids)
	return best, bestIdx
}

// orderKids pushes onto e's order stack the visiting order of a table
// node's children and returns it: the table's move first, when there is
// one, then every other child in ascending order of its own Evaluate —
// best first for the side to move at the node — ties in the position's
// order. Each entry is packed as score<<32 | index while it sorts, so the
// sort is stable without a second slice; the node pops its len(kids)
// entries when it returns. A table search pays one Evaluate per child it
// orders, which telemetry counts apart from nodes.
func orderKids[P Game[P]](e *searcher, kids []P, ttBest int) []int64 {
	base := len(e.order)
	if ttBest >= 0 {
		e.order = append(e.order, int64(ttBest))
	}
	from := len(e.order)
	for i := range kids {
		if i != ttBest {
			e.order = append(e.order, int64(kids[i].Evaluate())<<32|int64(i))
		}
	}
	rest := e.order[from:]
	slices.Sort(rest)
	for k := range rest {
		rest[k] &= 1<<32 - 1
	}
	if e.tm != nil {
		e.tm.OrderEvals.Add(int64(len(rest)))
	}
	return e.order[base:]
}

// Play returns the index of the best move at the root, or an error if the
// position is terminal. The root move list is generated once, inside the
// search — not pre-checked and recomputed.
func Play(ctx context.Context, pos Position, depth, workers int) (int, error) {
	r, err := SearchOpt(ctx, pos, depth, SearchOptions{Workers: workers})
	if err != nil {
		return -1, err
	}
	if r.Best < 0 {
		return -1, fmt.Errorf("engine: no legal moves")
	}
	return r.Best, nil
}

// WinScore is the magnitude used by game implementations for a decided
// game; heuristic scores must stay strictly below it.
func WinScore() int32 { return winScore }
