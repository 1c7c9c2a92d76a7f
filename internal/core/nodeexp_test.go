package core

import (
	"math/rand"
	"testing"

	"gametree/internal/bounds"
	"gametree/internal/tree"
)

func TestNSolveCorrectValue(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		d := 2 + rng.Intn(3)
		n := rng.Intn(6)
		tr := tree.IIDNor(d, n, 0.5, rng.Int63())
		want := tr.Evaluate()
		for w := 0; w <= 3; w++ {
			m, err := NParallelSolve(tr, w, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if m.Value != want {
				t.Fatalf("trial %d width %d: value %d, want %d", trial, w, m.Value, want)
			}
		}
	}
}

func TestNAlphaBetaCorrectValue(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		d := 2 + rng.Intn(3)
		n := rng.Intn(5)
		tr := tree.IIDMinMax(d, n, -100, 100, rng.Int63())
		want := tr.Evaluate()
		for w := 0; w <= 3; w++ {
			m, err := NParallelAlphaBeta(tr, w, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if m.Value != want {
				t.Fatalf("trial %d width %d: value %d, want %d", trial, w, m.Value, want)
			}
		}
	}
}

// Section 5: "The skeleton H_T consists of precisely those nodes of T that
// are expanded by N-Sequential SOLVE on T." Both cost models run one
// procedure, so the leaves among N-Sequential's expansions are the leaves
// the leaf-evaluation run evaluates, in the same order and to the same
// value; the MIN/MAX rows assert the same of N-Sequential alpha-beta.
func TestNSequentialSolveExpandsExactlySkeleton(t *testing.T) {
	type pair struct {
		name      string
		leaf, exp func(*tree.Tree, Options) (Metrics, error)
	}
	solve := pair{"solve", SequentialSolve, NSequentialSolve}
	ab := pair{"alpha-beta", SequentialAlphaBeta, NSequentialAlphaBeta}
	check := func(name string, p pair, tr *tree.Tree) {
		t.Helper()
		seq, err := p.leaf(tr, Options{RecordLeaves: true})
		if err != nil {
			t.Fatal(err)
		}
		h, _ := tree.Skeleton(tr, seq.Leaves)
		m, err := p.exp(tr, Options{RecordLeaves: true})
		if err != nil {
			t.Fatal(err)
		}
		if m.Work != int64(h.Len()) {
			t.Fatalf("%s %s: S*(T)=%d expansions, skeleton has %d nodes", name, p.name, m.Work, h.Len())
		}
		if m.Value != seq.Value {
			t.Fatalf("%s %s: value %d, leaf model %d", name, p.name, m.Value, seq.Value)
		}
		// Every expanded node is an ancestor of an evaluated leaf, and the
		// expanded leaves are the evaluated ones, in order.
		inSkeleton := map[tree.NodeID]bool{}
		for _, l := range seq.Leaves {
			for v := l; v != tree.None && !inSkeleton[v]; v = tr.Node(v).Parent {
				inSkeleton[v] = true
			}
		}
		var leaves []tree.NodeID
		for _, v := range m.Leaves {
			if !inSkeleton[v] {
				t.Fatalf("%s %s: expanded node %d not in skeleton", name, p.name, v)
			}
			if tr.IsLeaf(v) {
				leaves = append(leaves, v)
			}
		}
		if len(leaves) != len(seq.Leaves) {
			t.Fatalf("%s %s: %d leaves expanded, %d evaluated", name, p.name, len(leaves), len(seq.Leaves))
		}
		for i := range leaves {
			if leaves[i] != seq.Leaves[i] {
				t.Fatalf("%s %s: leaf order differs at %d", name, p.name, i)
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		d := 2 + rng.Intn(2)
		n := 1 + rng.Intn(5)
		check("iid trial", solve, tree.IIDNor(d, n, 0.5, rng.Int63()))
	}
	for d := 2; d <= 4; d++ {
		for n := 2; n <= 7; n++ {
			check("B worst", solve, tree.WorstCaseNOR(d, n, 1))
			check("B best", solve, tree.BestCaseNOR(d, n, 1))
			check("B iid", solve, tree.IIDNor(d, n, 0.5, int64(10*d+n)))
			check("M worst", ab, tree.WorstOrderedMinMax(d, n, int64(d+n)))
			check("M best", ab, tree.BestOrderedMinMax(d, n, int64(d+n)))
			check("M iid", ab, tree.IIDMinMax(d, n, -50, 50, int64(10*d+n)))
		}
	}
}

// Sequential expansion of B(d,n) worst case expands every node.
func TestNSequentialWorstCase(t *testing.T) {
	for _, d := range []int{2, 3} {
		for n := 1; n <= 5; n++ {
			tr := tree.WorstCaseNOR(d, n, 1)
			m, err := NSequentialSolve(tr, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if m.Work != int64(tr.Len()) {
				t.Errorf("B(%d,%d) worst: expanded %d of %d nodes", d, n, m.Work, tr.Len())
			}
		}
	}
}

// Proposition 6: t*_{k+1}(H_T) <= (n-k) C(n,k) (d-1)^k for width-1 runs on
// skeletons.
func TestProposition6(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 15; trial++ {
		d := 2 + rng.Intn(2)
		n := 2 + rng.Intn(4)
		tr := tree.IIDNor(d, n, 0.618, rng.Int63())
		seq, err := SequentialSolve(tr, Options{RecordLeaves: true})
		if err != nil {
			t.Fatal(err)
		}
		h, _ := tree.Skeleton(tr, seq.Leaves)
		m, err := NParallelSolve(h, 1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for deg := 1; deg < len(m.DegreeHist); deg++ {
			b := bounds.Prop6Bound(d, n, deg-1)
			if b.IsInt64() && m.DegreeHist[deg] > b.Int64() {
				t.Errorf("trial %d: t*_%d = %d exceeds Prop 6 bound %d",
					trial, deg, m.DegreeHist[deg], b.Int64())
			}
		}
	}
}

func TestNWidthZeroOneExpansionPerStep(t *testing.T) {
	tr := tree.IIDNor(3, 4, 0.5, 5)
	m, err := NSequentialSolve(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Processors != 1 || m.Steps != m.Work {
		t.Errorf("sequential expansion not 1/step: %+v", m)
	}
	mm := tree.IIDMinMax(3, 4, -9, 9, 5)
	m2, err := NSequentialAlphaBeta(mm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Processors != 1 || m2.Steps != m2.Work {
		t.Errorf("sequential alpha-beta expansion not 1/step: %+v", m2)
	}
}

// N-Sequential alpha-beta expands at most the nodes of the full tree and at
// least the leaf-model work (every evaluated leaf costs one expansion, plus
// internal nodes).
func TestNAlphaBetaWorkSandwich(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		tr := tree.IIDMinMax(2+rng.Intn(2), 1+rng.Intn(4), -50, 50, rng.Int63())
		leafModel, err := SequentialAlphaBeta(tr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		m, err := NSequentialAlphaBeta(tr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if m.Work < leafModel.Work {
			t.Errorf("trial %d: expansions %d < leaves evaluated %d", trial, m.Work, leafModel.Work)
		}
		if m.Work > int64(tr.Len()) {
			t.Errorf("trial %d: expansions %d > tree size %d", trial, m.Work, tr.Len())
		}
	}
}

func TestNParallelFasterThanNSequential(t *testing.T) {
	tr := tree.WorstCaseNOR(2, 9, 1)
	seq, err := NSequentialSolve(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := NParallelSolve(tr, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if par.Steps >= seq.Steps {
		t.Errorf("width 1 (%d steps) not faster than sequential (%d steps)", par.Steps, seq.Steps)
	}
}

// The width entry points of both cost models reject a negative width.
func TestNegativeWidthRejected(t *testing.T) {
	nor := tree.WorstCaseNOR(2, 8, 1)
	mm := tree.WorstOrderedMinMax(2, 6, 1)
	if _, err := NParallelSolve(nor, -1, Options{}); err == nil {
		t.Error("NParallelSolve: negative width accepted")
	}
	if _, err := NParallelAlphaBeta(mm, -2, Options{}); err == nil {
		t.Error("NParallelAlphaBeta: negative width accepted")
	}
	if _, err := ParallelAlphaBeta(mm, -1, Options{}); err == nil {
		t.Error("ParallelAlphaBeta: negative width accepted")
	}
}

// A lone leaf is one expansion: one step and one unit of work.
func TestExpandSingleLeaf(t *testing.T) {
	nor := tree.FromNested(tree.NOR, 0)
	m, err := NSequentialSolve(nor, Options{})
	if err != nil || m.Value != 0 || m.Steps != 1 || m.Work != 1 {
		t.Errorf("NOR leaf: %+v %v", m, err)
	}
	mm := tree.FromNested(tree.MinMax, 13)
	m2, err := NSequentialAlphaBeta(mm, Options{})
	if err != nil || m2.Value != 13 || m2.Work != 1 {
		t.Errorf("MinMax leaf: %+v %v", m2, err)
	}
}

func TestNTeamSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		tr := tree.IIDNor(2+rng.Intn(2), rng.Intn(6), 0.5, rng.Int63())
		want := tr.Evaluate()
		prev := int64(1 << 62)
		for _, p := range []int{1, 2, 4, 8} {
			m, err := NTeamSolve(tr, p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if m.Value != want {
				t.Fatalf("trial %d p=%d: value %d, want %d", trial, p, m.Value, want)
			}
			if m.Processors > p {
				t.Fatalf("trial %d p=%d: used %d processors", trial, p, m.Processors)
			}
			if m.Steps > prev {
				t.Fatalf("trial %d p=%d: steps not monotone", trial, p)
			}
			prev = m.Steps
		}
	}
	// p=1 is N-Sequential SOLVE exactly.
	tr := tree.WorstCaseNOR(2, 7, 1)
	a, err := NTeamSolve(tr, 1, Options{RecordLeaves: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NSequentialSolve(tr, Options{RecordLeaves: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Work != b.Work || a.Steps != b.Steps {
		t.Errorf("NTeamSolve(1) %+v != sequential %+v", a, b)
	}
	for i := range a.Leaves {
		if a.Leaves[i] != b.Leaves[i] {
			t.Fatalf("expansion order differs at %d", i)
		}
	}
	if _, err := NTeamSolve(tr, 0, Options{}); err == nil {
		t.Error("p=0 accepted")
	}
}
