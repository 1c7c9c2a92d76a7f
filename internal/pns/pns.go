// Package pns implements proof-number search over engine.Position games:
// the sequential PN algorithm (Allis), the two-level PN² variant, and a
// parallel solver that distributes most-proving-node descents across the
// resident workers of an engine.Pool using virtual proof numbers.
//
// Proof-number search answers a binary question — does the side to move
// win? — by growing the tree toward the node that is cheapest to decide.
// The solver uses the φ-δ (negamax) formulation: every node carries
// φ = proof number of "the side to move here wins" and δ = its disproof
// number. An internal node satisfies φ = min over children of δ(c) and
// δ = Σ φ(c); a terminal where the mover wins has (φ, δ) = (0, ∞), a
// terminal where the mover loses (∞, 0). The root is Proven once its φ
// reaches 0 and Disproven once its δ does.
//
// Parallelism follows the virtual proof-number scheme: a descending
// worker increments a per-node virtual counter along its path, and child
// selection orders siblings by effective δ (real δ plus virtual count).
// Concurrent workers therefore diverge toward different most-proving
// nodes instead of piling onto one leaf, while every termination and
// verdict decision reads only the real numbers, so virtual inflation can
// never produce a wrong answer. With one worker the virtual counts are
// zero at every selection point (they are incremented only below the
// worker's own position and unwound after each descent), so the w=1
// parallel solver expands exactly the node sequence of sequential PN.
//
// Solved subtrees are shared through the engine's transposition table:
// proof/disproof numbers pack into the standard entry layout under the
// BoundPN flag (see engine.StorePN), so PN solvers and alpha-beta
// searches trade work through one structure.
package pns

import (
	"context"
	"sync"
	"sync/atomic"

	"gametree/internal/engine"
	"gametree/internal/telemetry"
)

// Inf is the solver infinity for proof/disproof numbers.
const Inf = engine.PNInf

// infMax is the largest finite number: saturation point for δ sums.
const infMax = Inf - 1

// Verdict is the outcome of a solve.
type Verdict int

const (
	// Unknown means the solve stopped (budget, cancellation) before the
	// root was decided.
	Unknown Verdict = iota
	// Proven means the side to move at the root wins under perfect play.
	Proven
	// Disproven means the side to move at the root loses.
	Disproven
)

func (v Verdict) String() string {
	switch v {
	case Proven:
		return "proven"
	case Disproven:
		return "disproven"
	default:
		return "unknown"
	}
}

// Options configures a Solver.
type Options struct {
	// Table is an optional shared transposition table. Child
	// initialization probes it and number updates store through it, so
	// concurrent solvers (and alpha-beta searches over the same table)
	// share solved subtrees. Nil disables sharing.
	Table *engine.Table

	// MaxNodes bounds the nodes in the solver's tree (0 = unlimited):
	// every expansion is charged for the children it creates, so the
	// budget bounds the tree's memory and not only its work. Expansions
	// stop once the tree holds MaxNodes nodes; those already under way
	// finish, so the tree overshoots by at most one fan-out per worker.
	// The solve then returns Unknown; the tree is retained, so a later
	// call resumes where it stopped.
	MaxNodes int64

	// PN2Budget enables PN² in SolveSequential: each expanded frontier
	// child is pre-searched by a nested bounded PN whose node budget is
	// the current first-level tree size divided by the child count (at
	// least PN2Budget). Zero disables the second level.
	PN2Budget int64

	// Telemetry is an optional shard for sequential solves. Parallel
	// solves use the pool's per-worker shards instead.
	Telemetry *telemetry.Shard
}

// Result is the outcome of one Solve call.
type Result struct {
	Verdict Verdict
	PN, DN  uint32 // root proof/disproof numbers (0/Inf when solved)
	Nodes   int64  // nodes traversed during descents
	Expands int64  // leaf expansions (including nested PN² expansions)
}

// Progress is a race-clean snapshot of a running (or stopped) solve,
// the unit streamed by the serve layer's /v1/solve progress frames.
type Progress struct {
	PN, DN        uint32 // current root numbers
	Nodes         int64
	Expands       int64
	TreeNodes     int64 // nodes in the retained tree, what MaxNodes bounds
	FrontierDepth int64 // deepest most-proving node reached so far
}

// node is one tree node. pd packs φ (high 32 bits) and δ (low 32) into
// one word so readers never see a torn pair; virt is the virtual-number
// counter of in-flight descents through this node; mu serializes
// expansion and number recomputation.
type node struct {
	pd       atomic.Uint64
	virt     atomic.Int64
	mu       sync.Mutex
	pos      engine.Position
	hash     uint64
	hashed   bool
	children []*node
	expanded atomic.Bool
	depth    int32
}

func packPD(phi, delta uint32) uint64 { return uint64(phi)<<32 | uint64(delta) }
func unpackPD(pd uint64) (phi, delta uint32) {
	return uint32(pd >> 32), uint32(pd)
}

func (n *node) numbers() (phi, delta uint32) { return unpackPD(n.pd.Load()) }

func (n *node) solved() bool {
	phi, delta := n.numbers()
	return phi == 0 || delta == 0
}

// Solver holds the solve state for one root position. It is retained
// across calls: a budget- or deadline-stopped solve keeps its tree and
// a later Solve/SolveParallel call resumes from it (the serve layer's
// resumable partial responses rely on this).
type Solver struct {
	opt  Options
	root *node

	nodes    atomic.Int64
	tally    atomic.Uint64 // tree nodes (low 32 bits) and expansions (high 32), so an expansion costs one add
	updates  atomic.Int64
	frontier atomic.Int64 // deepest MPN reached (high-water)
}

// New builds a solver for pos. The position (and every successor) should
// implement engine.Hasher for transposition-table sharing; positions
// without hashes still solve, just without the table.
func New(pos engine.Position, opt Options) *Solver {
	s := &Solver{opt: opt}
	s.root = s.newNode(pos, 0)
	s.tally.Store(1)
	return s
}

// counts unpacks the tally. A tree of 2³² nodes would not fit in memory,
// so the node count never carries into the expansion count; the
// expansion count, which PN²'s discarded nested trees can push past the
// node count, wraps after 2³² expansions.
func (s *Solver) counts() (treeNodes, expands int64) {
	t := s.tally.Load()
	return int64(t & (1<<32 - 1)), int64(t >> 32)
}

// newNode allocates a frontier node with numbers seeded from the
// transposition table when available, else (1, 1).
func (s *Solver) newNode(pos engine.Position, depth int32) *node {
	n := &node{pos: pos, depth: depth}
	if h, ok := pos.(engine.Hasher); ok {
		n.hash = h.Hash()
		n.hashed = true
	}
	phi, delta := uint32(1), uint32(1)
	if n.hashed {
		if pn, dn, ok := s.opt.Table.ProbePN(n.hash); ok {
			phi, delta = pn, dn
		}
	}
	n.pd.Store(packPD(phi, delta))
	return n
}

// SetMaxNodes replaces the tree-node budget before a resume — the serve
// layer re-arms a checked-out partial solver with the new request's
// budget. Not safe to call while a solve is running.
func (s *Solver) SetMaxNodes(n int64) { s.opt.MaxNodes = n }

// Progress returns a race-clean snapshot of the current state.
func (s *Solver) Progress() Progress {
	phi, delta := s.root.numbers()
	tree, expands := s.counts()
	return Progress{
		PN:            phi,
		DN:            delta,
		Nodes:         s.nodes.Load(),
		Expands:       expands,
		TreeNodes:     tree,
		FrontierDepth: s.frontier.Load(),
	}
}

// Result returns the current verdict and counters — the partial state
// when the solve was stopped, the final state once it is decided.
func (s *Solver) Result() Result {
	phi, delta := s.root.numbers()
	_, expands := s.counts()
	r := Result{
		PN:      phi,
		DN:      delta,
		Nodes:   s.nodes.Load(),
		Expands: expands,
	}
	switch {
	case phi == 0:
		r.Verdict = Proven
	case delta == 0:
		r.Verdict = Disproven
	}
	return r
}

// Solve runs sequential proof-number search (PN² when PN2Budget is set)
// until the root is decided, the tree reaches MaxNodes (Unknown),
// or ctx is cancelled (Unknown, engine.ErrCancelled). The calling
// goroutine does all the work.
func (s *Solver) Solve(ctx context.Context) (Result, error) {
	err := s.loop(ctx.Done(), s.opt.Telemetry, func() bool { return false })
	if err != nil && ctx.Err() == context.DeadlineExceeded {
		err = deadlineErr{}
	}
	return s.Result(), err
}

// deadlineErr matches the pooled cancellation contract: it is
// engine.ErrCancelled and wraps context.DeadlineExceeded.
type deadlineErr struct{}

func (deadlineErr) Error() string { return engine.ErrCancelled.Error() }
func (deadlineErr) Is(target error) bool {
	return target == engine.ErrCancelled || target == context.DeadlineExceeded
}

// SolveParallel runs the solve on pool's resident workers. Every worker
// executes the same descend-expand-update loop over the shared tree;
// virtual numbers steer them apart. The error contract follows
// Pool.Fanout: engine.ErrCancelled on cancellation (wrapping
// context.DeadlineExceeded on timeout), engine.ErrSearchPanic if a
// worker panicked. On error the solver retains its partial tree.
func (s *Solver) SolveParallel(ctx context.Context, pool *engine.Pool) (Result, error) {
	err := pool.Fanout(ctx, func(id int, tm *telemetry.Shard, stopped func() bool) {
		s.loop(nil, tm, stopped)
	})
	return s.Result(), err
}

// loop is the solver body: repeatedly descend to a most-proving node,
// expand it, and recompute ancestors, until the root is solved or a
// stop condition fires. done is an optional context-done channel (used
// by the sequential path; the pooled path passes its stop predicate
// instead). Safe to run concurrently from many goroutines.
func (s *Solver) loop(done <-chan struct{}, tm *telemetry.Shard, stopped func() bool) error {
	var path []*node
	for iter := 0; ; iter++ {
		if s.root.solved() || stopped() {
			return nil
		}
		if s.opt.MaxNodes > 0 {
			if tree, _ := s.counts(); tree >= s.opt.MaxNodes {
				return nil
			}
		}
		if done != nil && iter&15 == 0 {
			select {
			case <-done:
				return engine.ErrCancelled
			default:
			}
		}
		path = s.descend(path[:0], tm)
		mpn := path[len(path)-1]
		s.observeFrontier(int64(mpn.depth), tm)
		if !mpn.expanded.Load() && !mpn.solved() {
			s.expand(mpn, tm)
		}
		s.updatePath(path, tm)
	}
}

// descend walks from the root to a most-proving node: at each expanded
// node it selects the child with minimal effective δ (real δ plus the
// virtual count of in-flight descents), increments that child's virtual
// counter, and continues. The walk stops at a frontier node, a solved
// node (stale parent numbers can point at one; the caller's update pass
// repairs them), or a node whose children are all disproven. The root
// carries no virtual count — every worker starts there anyway.
func (s *Solver) descend(path []*node, tm *telemetry.Shard) []*node {
	n := s.root
	path = append(path, n)
	visited := int64(1)
	for n.expanded.Load() && !n.solved() && len(n.children) > 0 {
		best, bestEff := (*node)(nil), uint64(infMax)+1
		for _, c := range n.children {
			_, delta := c.numbers()
			if delta == Inf {
				continue
			}
			eff := uint64(delta) + uint64(c.virt.Load())
			if eff < bestEff {
				best, bestEff = c, eff
			}
		}
		if best == nil {
			break // every child disproven; update pass will fold this in
		}
		best.virt.Add(1)
		path = append(path, best)
		n = best
		visited++
	}
	if tm != nil {
		tm.PNNodes.Add(visited)
	}
	s.nodes.Add(visited)
	return path
}

// observeFrontier raises the frontier-depth high-water mark and samples
// the MPN depth histogram.
func (s *Solver) observeFrontier(depth int64, tm *telemetry.Shard) {
	for {
		cur := s.frontier.Load()
		if depth <= cur || s.frontier.CompareAndSwap(cur, depth) {
			break
		}
	}
	if tm != nil {
		tm.Hist[telemetry.HistPNMPNDepth].Observe(depth)
	}
}

// expand materializes a frontier node: terminals get their final
// numbers from Evaluate (mover wins → (0, ∞), mover loses → (∞, 0));
// interior nodes get children seeded from the transposition table or
// (1, 1). Under PN² each child is additionally pre-searched by a nested
// bounded sequential PN. The per-node lock makes concurrent expansion
// of one node idempotent: the loser of the race returns without work.
func (s *Solver) expand(n *node, tm *telemetry.Shard) {
	n.mu.Lock()
	if n.expanded.Load() {
		n.mu.Unlock()
		return
	}
	moves := n.pos.Moves()
	if len(moves) == 0 {
		if n.pos.Evaluate() > 0 {
			n.pd.Store(packPD(0, Inf))
		} else {
			n.pd.Store(packPD(Inf, 0))
		}
	} else {
		children := make([]*node, len(moves))
		for i, m := range moves {
			children[i] = s.newNode(m, n.depth+1)
		}
		n.children = children
	}
	n.expanded.Store(true)
	n.mu.Unlock()
	if tm != nil {
		tm.PNExpands.Add(1)
	}
	s.tally.Add(1<<32 | uint64(len(n.children)))
	s.storePN(n)
	if s.opt.PN2Budget > 0 && len(n.children) > 0 {
		s.preSearch(n, tm)
	}
}

// preSearch is the PN² second level: each fresh child is probed by a
// nested bounded sequential PN over the shared table, and its first-
// level numbers are seeded from the nested root. The budget grows with
// the first-level tree, so early expansions are cheap and deep critical
// lines get real lookahead. Nested expansions count toward this
// solver's totals — PN² trades more work per expansion for a smaller
// first-level tree, and the accounting must show that trade honestly.
// Nested nodes do not count toward MaxNodes: each nested tree has its
// own node budget and is dropped when its pre-search ends.
func (s *Solver) preSearch(n *node, tm *telemetry.Shard) {
	tree, _ := s.counts()
	budget := tree / int64(len(n.children))
	if budget < s.opt.PN2Budget {
		budget = s.opt.PN2Budget
	}
	for _, c := range n.children {
		if c.solved() {
			continue
		}
		nested := New(c.pos, Options{Table: s.opt.Table, MaxNodes: budget})
		nested.loop(nil, tm, func() bool { return false })
		s.nodes.Add(nested.nodes.Load())
		_, expands := nested.counts()
		s.tally.Add(uint64(expands) << 32)
		s.updates.Add(nested.updates.Load())
		phi, delta := nested.root.numbers()
		c.pd.Store(packPD(phi, delta))
		if phi == 0 || delta == 0 {
			s.storePN(c)
		}
	}
}

// updatePath recomputes proof/disproof numbers bottom-up along a
// descent path and unwinds the virtual counters the descent planted.
// Each node is recomputed under its own lock from atomic child
// snapshots; locks never nest. Concurrent updates of one node can
// interleave, but the worker that changed a child always recomputes the
// parent afterwards (the parent is on its path), so the final write to
// any node folds in the freshest child values — stale intermediate
// states are transient, never sticky.
func (s *Solver) updatePath(path []*node, tm *telemetry.Shard) {
	updated := int64(0)
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		if i > 0 {
			// Unwind this descent's virtual count planted by descend
			// (the root is never virtually counted).
			n.virt.Add(-1)
		}
		if !n.expanded.Load() || len(n.children) == 0 {
			continue // frontier or terminal: numbers already final
		}
		n.mu.Lock()
		phi, delta := recompute(n)
		old := n.pd.Load()
		changed := old != packPD(phi, delta)
		if changed {
			n.pd.Store(packPD(phi, delta))
		}
		n.mu.Unlock()
		if changed {
			updated++
			s.storePN(n)
		}
	}
	if updated > 0 {
		if tm != nil {
			tm.PNUpdates.Add(updated)
		}
		s.updates.Add(updated)
	}
}

// recompute derives a node's (φ, δ) from its children's current
// numbers: φ = min δ(c), δ = Σ φ(c) saturating below infinity.
func recompute(n *node) (phi, delta uint32) {
	phi = Inf
	var sum uint64
	for _, c := range n.children {
		cphi, cdelta := c.numbers()
		if cdelta < phi {
			phi = cdelta
		}
		if cphi == Inf {
			sum = uint64(Inf)
		} else if sum < uint64(Inf) {
			sum += uint64(cphi)
			if sum > uint64(infMax) {
				sum = uint64(infMax)
			}
		}
	}
	return phi, uint32(sum)
}

// storePN shares a node's current numbers through the transposition
// table (solved entries are kept deep, unsolved ones are move-ordering
// hints — see engine.StorePN).
func (s *Solver) storePN(n *node) {
	if n.hashed {
		phi, delta := n.numbers()
		s.opt.Table.StorePN(n.hash, phi, delta)
	}
}
