package engine_test

// The engine on the paper's own instances: uniform trees M(d,n) and
// B(d,n), read as games through tree.Pos, where every value is known
// exactly (tree.Evaluate) and so is the leaf set of sequential alpha-beta
// (alphabeta.AlphaBeta).

import (
	"context"
	"fmt"
	"runtime/debug"
	"testing"

	"gametree/internal/alphabeta"
	"gametree/internal/engine"
	"gametree/internal/telemetry"
	"gametree/internal/tree"
)

// countedPos is a tree.Pos that counts the leaves the search evaluates.
type countedPos struct {
	tree.Pos
	leaves *int64
}

func (p countedPos) Children(dst []countedPos) []countedPos {
	n := p.T.Node(p.ID)
	for i := int32(0); i < n.NumChildren; i++ {
		dst = append(dst, countedPos{tree.Pos{T: p.T, ID: n.FirstChild + tree.NodeID(i)}, p.leaves})
	}
	return dst
}

func (p countedPos) Evaluate() int32 {
	if p.T.IsLeaf(p.ID) {
		*p.leaves++
	}
	return p.Pos.Evaluate()
}

// TestEnginePaperTrees: on seeded best-, i.i.d.- and worst-ordered
// M(d,n), d = 2..5 and n = 2..6, engine.Search and a one-worker
// Pool.Search return the tree's value and evaluate exactly the leaves
// sequential alpha-beta evaluates, searched to the tree's height and with
// no horizon. On B(d,n), i.i.d. and in the worst and best cases of
// Sequential SOLVE, they return 1 - 2·value: the mover wins iff the root
// is 0.
func TestEnginePaperTrees(t *testing.T) {
	ctx := context.Background()
	pool := engine.NewPool(1, nil, nil)
	defer pool.Close()
	for d := 2; d <= 5; d++ {
		for n := 2; n <= 6; n++ {
			seed := int64(10*d + n)
			minmax := map[string]*tree.Tree{
				"best":  tree.BestOrderedMinMax(d, n, seed),
				"iid":   tree.IIDMinMax(d, n, -1000, 1000, seed),
				"worst": tree.WorstOrderedMinMax(d, n, seed),
			}
			for order, tr := range minmax {
				ab := alphabeta.AlphaBeta(tr)
				for _, depth := range []int{-1, n} {
					name := fmt.Sprintf("M(%d,%d)/%s/depth%d", d, n, order, depth)
					var leaves int64
					pos := engine.NewNode(countedPos{tree.Pos{T: tr}, &leaves})
					if r := engine.Search(pos, depth); r.Value != ab.Value || leaves != ab.Leaves {
						t.Fatalf("%s: Search value %d over %d leaves, alpha-beta %d over %d",
							name, r.Value, leaves, ab.Value, ab.Leaves)
					}
					leaves = 0
					r, err := pool.Search(ctx, pos, depth)
					if err != nil || r.Value != ab.Value || leaves != ab.Leaves {
						t.Fatalf("%s: Pool.Search(w=1) value %d over %d leaves (%v), alpha-beta %d over %d",
							name, r.Value, leaves, err, ab.Value, ab.Leaves)
					}
				}
				if ab.Value != tr.Evaluate() {
					t.Fatalf("M(%d,%d)/%s: alpha-beta %d, Evaluate %d", d, n, order, ab.Value, tr.Evaluate())
				}
			}
			nor := map[string]*tree.Tree{
				"iid":   tree.IIDNor(d, n, 0.4, seed),
				"worst": tree.WorstCaseNOR(d, n, int32(seed%2)),
				"best":  tree.BestCaseNOR(d, n, int32(seed%2)),
			}
			for kind, tr := range nor {
				want := 1 - 2*tr.Evaluate()
				for _, depth := range []int{-1, n} {
					pos := engine.Arena(tr)
					if r := engine.Search(pos, depth); r.Value != want {
						t.Fatalf("B(%d,%d)/%s/depth%d: Search %d, want %d", d, n, kind, depth, r.Value, want)
					}
					if r, err := pool.Search(ctx, pos, depth); err != nil || r.Value != want {
						t.Fatalf("B(%d,%d)/%s/depth%d: Pool.Search(w=1) %d (%v), want %d", d, n, kind, depth, r.Value, err, want)
					}
				}
			}
		}
	}
}

// TestBinaryTreeOpensNoSplits: on the worst-ordered M(2,14) every node
// has one younger brother, which is never a split point, so one- and
// two-worker pools open no split and return the tree's value.
func TestBinaryTreeOpensNoSplits(t *testing.T) {
	const n = 14
	tr := tree.WorstOrderedMinMax(2, n, 1)
	want := tr.Evaluate()
	for _, w := range []int{1, 2} {
		rec := telemetry.NewRecorder()
		pool := engine.NewPool(w, nil, rec)
		r, err := pool.Search(context.Background(), engine.Arena(tr), n)
		pool.Close()
		if err != nil || r.Value != want {
			t.Fatalf("w=%d: value %d (%v), want %d", w, r.Value, err, want)
		}
		if s := rec.Snapshot().Total.Splits; s != 0 {
			t.Errorf("w=%d: %d splits on a binary tree, want 0", w, s)
		}
	}
}

// raceEnabled reports whether the test binary was built with -race, whose
// instrumentation allocates on its own.
func raceEnabled() bool {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestWarmPoolArenaAllocations is the allocation guard of the arena game:
// on a warm pool, a search of an i.i.d. M(4,8) makes a small constant
// number of allocations, however many nodes it visits, at one and two
// workers. The bar is TestWarmPoolSearchAllocations' (internal/serve).
func TestWarmPoolArenaAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector allocates")
	}
	const maxAllocs, minNodes = 16, 2000
	ctx := context.Background()
	var roots []engine.Position
	for seed := int64(1); seed <= 6; seed++ {
		roots = append(roots, engine.Arena(tree.IIDMinMax(4, 8, -1000, 1000, seed)))
	}
	for _, w := range []int{1, 2} {
		pool := engine.NewPool(w, nil, nil)
		for _, p := range roots {
			if _, err := pool.Search(ctx, p, 8); err != nil {
				t.Fatal(err)
			}
		}
		i, fewest := 0, int64(-1)
		allocs := testing.AllocsPerRun(len(roots)-1, func() {
			r, err := pool.Search(ctx, roots[i], 8)
			if err != nil {
				t.Fatal(err)
			}
			i++
			if fewest < 0 || r.Nodes < fewest {
				fewest = r.Nodes
			}
		})
		pool.Close()
		if fewest <= minNodes {
			t.Errorf("w=%d: a search visited only %d nodes, want > %d", w, fewest, minNodes)
		}
		if allocs > maxAllocs {
			t.Errorf("w=%d: %.0f allocations per search, want <= %d", w, allocs, maxAllocs)
		}
	}
}
