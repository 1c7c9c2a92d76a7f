package engine

// Tests of the recursive YBWC splitting discipline: node parity with the
// sequential search at one worker, the nested split/abort accounting, and
// the chained abort rule draining multiple levels of split points.

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"gametree/internal/telemetry"
	"gametree/internal/tree"
)

// TestYBWCNodeParityOneWorker: with one worker the owner pops its own
// tasks in sequential move order and the shared alpha mirrors the
// sequential loop's, so the YBWC path must visit exactly the sequential
// node count and return identical values and best moves — on the random
// fixture suite and on the worst-ordered tree. The windows are finite inside
// speculative subtrees, so nested beta cutoffs fire even with no
// concurrency; the test also pins that those cutoffs happen at all.
func TestYBWCNodeParityOneWorker(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(77))
	var drains int64
	for trial := 0; trial < 10; trial++ {
		depth := 5 + rng.Intn(3)
		p := Arena(RandomArena(rng.Int63(), depth, 4))
		seq := Search(p, depth)

		rec := telemetry.NewRecorder()
		par, err := SearchOpt(ctx, p, depth,
			SearchOptions{Workers: 1, Telemetry: rec})
		if err != nil {
			t.Fatal(err)
		}
		if par.Value != seq.Value || par.Best != seq.Best {
			t.Fatalf("trial %d: YBWC w=1 got (value %d, best %d), sequential (value %d, best %d)",
				trial, par.Value, par.Best, seq.Value, seq.Best)
		}
		if par.Nodes != seq.Nodes {
			t.Fatalf("trial %d: YBWC w=1 visited %d nodes, sequential %d",
				trial, par.Nodes, seq.Nodes)
		}
		drains += rec.Snapshot().Total.AbortDrains
	}
	if drains == 0 {
		t.Fatal("no abort drains across the suite: nested split windows are not producing cutoffs")
	}

	// Worst-ordered tree: same parity on the fixture the benchmarks use.
	const depth, branch = 7, 4
	worst := Arena(tree.WorstOrderedMinMax(branch, depth, 1))
	seq := Search(worst, depth)
	par, err := SearchOpt(ctx, worst, depth, SearchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if par.Value != seq.Value || par.Nodes != seq.Nodes {
		t.Fatalf("worst-ordered tree: YBWC w=1 (value %d, nodes %d), sequential (value %d, nodes %d)",
			par.Value, par.Nodes, seq.Value, seq.Nodes)
	}
}

// TestYBWCNestedAccounting pins the split accounting of the recursive
// discipline on the worst-ordered tree at one worker, where scheduling is
// deterministic: the eldest-first spine opens exactly depth-horizon splits
// with no enclosing split (up == nil), and every other split opens inside
// a speculative subtree and must be counted as nested.
func TestYBWCNestedAccounting(t *testing.T) {
	const depth, branch = 6, 4
	rec := telemetry.NewRecorder()
	if _, err := SearchOpt(context.Background(), Arena(tree.WorstOrderedMinMax(branch, depth, 1)), depth,
		SearchOptions{Workers: 1, Telemetry: rec}); err != nil {
		t.Fatal(err)
	}
	c := rec.Snapshot().Total
	spine := int64(depth - splitHorizon)
	if c.Splits-c.NestedSplits != spine {
		t.Fatalf("splits %d, nested %d: want exactly %d non-nested spine splits",
			c.Splits, c.NestedSplits, spine)
	}
	if c.NestedSplits == 0 {
		t.Fatal("worst-ordered tree opened no nested splits: tasks are not re-entering the searcher")
	}
	if c.Tasks+c.Aborts < c.Splits {
		t.Fatalf("task accounting: %d tasks + %d aborts < %d splits", c.Tasks, c.Aborts, c.Splits)
	}
}

// gatedLeaf is a leaf position whose Evaluate can block on a channel,
// close another, or sleep — the scaffolding of the booby-trapped tree in
// TestYBWCNestedAbortDrain. A blocked Evaluate times out (loudly, via
// fallthrough after 10s) rather than deadlocking the suite.
type gatedLeaf struct {
	val     int32
	waitFor chan struct{} // block until closed (nil = don't)
	closes  chan struct{} // close on first evaluation (nil = don't)
	sleep   time.Duration
	closed  atomic.Bool
}

func (g *gatedLeaf) Moves() []Position { return nil }
func (g *gatedLeaf) Evaluate() int32 {
	if g.closes != nil && g.closed.CompareAndSwap(false, true) {
		close(g.closes)
	}
	if g.waitFor != nil {
		select {
		case <-g.waitFor:
		case <-time.After(10 * time.Second):
		}
	}
	if g.sleep > 0 {
		time.Sleep(g.sleep)
	}
	return g.val
}

// node is a plain interior position over explicit children.
type node struct{ kids []Position }

func (n *node) Moves() []Position { return n.kids }
func (n *node) Evaluate() int32   { return 0 }

// TestYBWCNestedAbortDrain builds a booby-trapped tree where a beta
// cutoff at a grandparent split must drain two levels of split points:
//
//	R (depth 5)          — phase 1 on C0 raises root alpha to 10,
//	├── C0 = -10           then splits S0 over X
//	└── X (depth 4)      — eldest X0 leaves alpha < beta, splits S1
//	    ├── X0 = 20        (nested under S0) over X1..X3
//	    ├── X1 (depth 3) — splits S2 (nested under S1) over Y1..Y6
//	    │   ├── Y0 = -12
//	    │   └── Y1..Y6 = -12 (Y1 opens the gate; Y2.. sleep)
//	    ├── X2 = 8       — blocks until S2 is open, then completes and
//	    │                  raises the beta cutoff at S1
//	    └── X3 = 50      — blocks alongside X2 (steal fodder)
//
// X is searched with window (-inf, -10); X2's completion gives S1 alpha
// -8 >= beta -10, aborting S1 while S2 still holds sleeping and queued
// siblings. The chained abort (S2.up == S1) must pre-empt them all:
// every pending sibling completes ok=false, nothing partial merges (the
// root value stays exact), and the nested-abort counter records the
// ancestor-driven skips. Run under -race in CI.
func TestYBWCNestedAbortDrain(t *testing.T) {
	s2open := make(chan struct{})
	leaf := func(v int32) Position { return &gatedLeaf{val: v} }

	ykids := []Position{&gatedLeaf{val: -12}, &gatedLeaf{val: -12, closes: s2open}}
	for i := 0; i < 5; i++ {
		ykids = append(ykids, &gatedLeaf{val: -12, sleep: 150 * time.Millisecond})
	}
	x1 := &node{kids: ykids}
	x := &node{kids: []Position{
		leaf(20),
		x1,
		&gatedLeaf{val: 8, waitFor: s2open},
		&gatedLeaf{val: 50, waitFor: s2open},
	}}
	root := &node{kids: []Position{leaf(-10), x}}

	// Hand-computed minimax: X1 = 12, X = max(-20,-12,-8,-50) = -8,
	// R = max(10, 8) = 10 with best move 0. The pool's test-only eager
	// flag forces a split at every node — the demand-driven gate would
	// otherwise keep the owner sequential while X2/X3 sit queued, and this
	// test is about the abort machinery, not the gate policy.
	rec := telemetry.NewRecorder()
	p := newPool(4, nil, rec, 0)
	p.eager = true
	defer p.close()
	r, err := p.search(context.Background(), root, 5, -scoreInf, scoreInf, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 10 || r.Best != 0 {
		t.Fatalf("got (value %d, best %d), want (10, 0): a pre-empted sibling's partial value merged",
			r.Value, r.Best)
	}

	c := rec.Snapshot().Total
	if c.Splits != 3 || c.NestedSplits != 2 {
		t.Fatalf("splits %d (nested %d), want 3 (2): S0 at the root, S1 and S2 nested",
			c.Splits, c.NestedSplits)
	}
	if c.AbortDrains == 0 {
		t.Fatal("S1's beta cutoff recorded no abort drain")
	}
	if c.NestedAborts == 0 {
		t.Fatal("no nested aborts: S2's pending siblings were not pre-empted by the ancestor cutoff")
	}
}
