package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gametree/internal/alphabeta"
	"gametree/internal/bounds"
	"gametree/internal/tree"
)

func seqWork(t *testing.T, tr *tree.Tree) int64 {
	t.Helper()
	m, err := SequentialSolve(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m.Work
}

func TestSequentialSolveMatchesRecursiveLTR(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		d := 2 + rng.Intn(3)
		n := rng.Intn(6)
		tr := tree.IIDNor(d, n, []float64{0.3, 0.5, 0.618}[rng.Intn(3)], rng.Int63())
		ref := alphabeta.SolveLTR(tr)
		m, err := SequentialSolve(tr, Options{RecordLeaves: true})
		if err != nil {
			t.Fatal(err)
		}
		if m.Value != ref.Value {
			t.Fatalf("trial %d: value %d != recursive %d", trial, m.Value, ref.Value)
		}
		if m.Work != ref.Leaves {
			t.Fatalf("trial %d: work %d != recursive leaf count %d", trial, m.Work, ref.Leaves)
		}
		if m.Steps != m.Work || m.Processors != 1 {
			t.Fatalf("trial %d: sequential run not one leaf per step: %+v", trial, m)
		}
		// Leaves must come out in strictly left-to-right (increasing id
		// within a level-ordered uniform arena is not guaranteed across
		// subtrees, so check via position ordering instead): each
		// evaluated leaf must be the leftmost live at its step.
		if len(m.Leaves) != int(m.Work) {
			t.Fatalf("trial %d: recorded %d leaves, work %d", trial, len(m.Leaves), m.Work)
		}
	}
}

func TestSolveCorrectValueAllWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		d := 2 + rng.Intn(3)
		n := rng.Intn(6)
		tr := tree.IIDNor(d, n, 0.5, rng.Int63())
		want := tr.Evaluate()
		for w := 0; w <= 4; w++ {
			m, err := ParallelSolve(tr, w, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if m.Value != want {
				t.Fatalf("trial %d width %d: value %d, want %d", trial, w, m.Value, want)
			}
		}
	}
}

func TestWidthZeroIsSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		tr := tree.IIDNor(2+rng.Intn(2), rng.Intn(6), 0.5, rng.Int63())
		a, err := ParallelSolve(tr, 0, Options{RecordLeaves: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := SequentialSolve(tr, Options{RecordLeaves: true})
		if err != nil {
			t.Fatal(err)
		}
		if a.Steps != b.Steps || a.Work != b.Work {
			t.Fatalf("trial %d: width 0 differs from sequential: %+v vs %+v", trial, a, b)
		}
		for i := range a.Leaves {
			if a.Leaves[i] != b.Leaves[i] {
				t.Fatalf("trial %d: leaf order differs at %d", trial, i)
			}
		}
	}
}

func TestWorstCaseEvaluatesEveryLeaf(t *testing.T) {
	for _, d := range []int{2, 3} {
		for n := 1; n <= 6; n++ {
			for _, rv := range []int32{0, 1} {
				tr := tree.WorstCaseNOR(d, n, rv)
				want := int64(tr.NumLeaves())
				if got := seqWork(t, tr); got != want {
					t.Errorf("WorstCaseNOR(%d,%d,%d): work %d, want all %d", d, n, rv, got, want)
				}
			}
		}
	}
}

func TestBestCaseMatchesProofTree(t *testing.T) {
	for _, d := range []int{2, 3} {
		for n := 1; n <= 6; n++ {
			for _, rv := range []int32{0, 1} {
				tr := tree.BestCaseNOR(d, n, rv)
				if got, want := seqWork(t, tr), tree.ProofTreeSize(tr); got != want {
					t.Errorf("BestCaseNOR(%d,%d,%d): work %d, want proof size %d", d, n, rv, got, want)
				}
			}
		}
	}
}

func TestFact1LowerBoundNeverViolated(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		d := 2 + rng.Intn(2)
		n := 1 + rng.Intn(5)
		tr := tree.IIDNor(d, n, 0.618, rng.Int63())
		lb := bounds.Fact1(d, n).Int64()
		for w := 0; w <= 2; w++ {
			m, err := ParallelSolve(tr, w, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if m.Work < lb {
				t.Fatalf("trial %d width %d: work %d below Fact 1 bound %d", trial, w, m.Work, lb)
			}
		}
	}
}

func TestTeamSolveBasics(t *testing.T) {
	tr := tree.WorstCaseNOR(2, 8, 1)
	seq := seqWork(t, tr)
	prev := seq
	for _, p := range []int{1, 2, 4, 8, 16} {
		m, err := TeamSolve(tr, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if m.Value != tr.Evaluate() {
			t.Fatalf("TeamSolve(%d): wrong value", p)
		}
		if m.Processors > p {
			t.Fatalf("TeamSolve(%d): used %d processors", p, m.Processors)
		}
		if m.Steps > prev {
			t.Errorf("TeamSolve(%d): steps %d not monotone (prev %d)", p, m.Steps, prev)
		}
		prev = m.Steps
	}
	if _, err := TeamSolve(tr, 0, Options{}); err == nil {
		t.Error("TeamSolve(0) should fail")
	}
	if _, err := ParallelSolve(tr, -1, Options{}); err == nil {
		t.Error("ParallelSolve(-1) should fail")
	}
}

func TestParallelSolveProcessorBound(t *testing.T) {
	// Width 1 on B(d, n) uses at most n+1 processors (Theorem 1 statement).
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		d := 2 + rng.Intn(3)
		n := 1 + rng.Intn(6)
		tr := tree.IIDNor(d, n, 0.5, rng.Int63())
		m, err := ParallelSolve(tr, 1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if m.Processors > n+1 {
			t.Fatalf("width 1 used %d processors on height %d", m.Processors, n)
		}
	}
}

func TestDegreeHistogramConsistency(t *testing.T) {
	tr := tree.IIDNor(3, 5, 0.5, 77)
	m, err := ParallelSolve(tr, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var steps, work int64
	for k, c := range m.DegreeHist {
		steps += c
		work += int64(k) * c
	}
	if steps != m.Steps || work != m.Work {
		t.Errorf("histogram inconsistent: steps %d/%d work %d/%d", steps, m.Steps, work, m.Work)
	}
}

// TestProposition3 checks t_{k+1}(H_T) <= C(n,k)(d-1)^k for width 1 runs
// on skeletons of random and adversarial uniform trees.
func TestProposition3(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	check := func(tr *tree.Tree, d, n int) {
		t.Helper()
		seq, err := SequentialSolve(tr, Options{RecordLeaves: true})
		if err != nil {
			t.Fatal(err)
		}
		h, _ := tree.Skeleton(tr, seq.Leaves)
		m, err := ParallelSolve(h, 1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for deg := 1; deg < len(m.DegreeHist); deg++ {
			bound := bounds.SigmaK(d, n, deg-1)
			if bound.IsInt64() && m.DegreeHist[deg] > bound.Int64() {
				t.Errorf("B(%d,%d): t_%d = %d exceeds sigma_%d = %d",
					d, n, deg, m.DegreeHist[deg], deg-1, bound.Int64())
			}
		}
	}
	for trial := 0; trial < 15; trial++ {
		d := 2 + rng.Intn(2)
		n := 2 + rng.Intn(5)
		check(tree.IIDNor(d, n, 0.618, rng.Int63()), d, n)
	}
	check(tree.WorstCaseNOR(2, 8, 1), 2, 8)
	check(tree.BestCaseNOR(2, 8, 1), 2, 8)
}

// TestProposition2 checks P_w(T) <= P_w(H_T) on sampled instances.
func TestProposition2(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		d := 2 + rng.Intn(2)
		n := 2 + rng.Intn(5)
		tr := tree.IIDNor(d, n, 0.5, rng.Int63())
		seq, err := SequentialSolve(tr, Options{RecordLeaves: true})
		if err != nil {
			t.Fatal(err)
		}
		h, _ := tree.Skeleton(tr, seq.Leaves)
		for w := 1; w <= 2; w++ {
			pt, err := ParallelSolve(tr, w, Options{})
			if err != nil {
				t.Fatal(err)
			}
			ph, err := ParallelSolve(h, w, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if pt.Steps > ph.Steps {
				t.Errorf("trial %d width %d: P(T)=%d > P(H_T)=%d (Prop 2 violated)",
					trial, w, pt.Steps, ph.Steps)
			}
		}
	}
}

// TestSkeletonWorkEqualsSequential: H_T's leaves are exactly L(T), so
// running Sequential SOLVE on H_T evaluates all of them and S(H_T) = S(T).
func TestSkeletonWorkEqualsSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		tr := tree.IIDNor(2+rng.Intn(2), 1+rng.Intn(5), 0.5, rng.Int63())
		seq, err := SequentialSolve(tr, Options{RecordLeaves: true})
		if err != nil {
			t.Fatal(err)
		}
		h, _ := tree.Skeleton(tr, seq.Leaves)
		if int64(h.NumLeaves()) != seq.Work {
			t.Fatalf("trial %d: skeleton leaves %d != S(T) %d", trial, h.NumLeaves(), seq.Work)
		}
		seqH, err := SequentialSolve(h, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if seqH.Work != seq.Work {
			t.Fatalf("trial %d: S(H_T) %d != S(T) %d", trial, seqH.Work, seq.Work)
		}
	}
}

// Property: the leftmost live leaf always has pruning number 0, and
// pruning numbers from the budgeted walk agree with the naive definition.
func TestPruningNumbersAgainstDefinition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := tree.IIDNor(2+rng.Intn(2), 1+rng.Intn(4), 0.5, rng.Int63())
		// Evaluate a random prefix of leaves sequentially to get a
		// mid-run state.
		seq, err := SequentialSolve(tr, Options{RecordLeaves: true})
		if err != nil {
			return false
		}
		k := rng.Intn(len(seq.Leaves))
		ev := map[tree.NodeID]int32{}
		for _, l := range seq.Leaves[:k] {
			ev[l] = tr.LeafValue(l)
		}
		got := PruningNumbersNOR(tr, ev)
		want := naivePruningNumbers(tr, ev)
		if len(got) != len(want) {
			return false
		}
		minPN, minLeaf := 1<<30, tree.None
		for l, pn := range got {
			if want[l] != pn {
				return false
			}
			if pn < minPN || (pn == minPN && l < minLeaf) {
				minPN, minLeaf = pn, l
			}
		}
		return minPN == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// naivePruningNumbers computes pruning numbers straight from the paper's
// definition: for each live leaf, sum over its ancestors the number of
// live left-siblings.
func naivePruningNumbers(t *tree.Tree, evaluated map[tree.NodeID]int32) map[tree.NodeID]int {
	s := newNorState(t, leafEval)
	for l, v := range evaluated {
		s.determine(l, int8(v))
	}
	live := func(v tree.NodeID) bool {
		for x := v; x != tree.None; x = t.Node(x).Parent {
			if s.det[x] >= 0 {
				return false
			}
		}
		return true
	}
	out := map[tree.NodeID]int{}
	for _, l := range t.Leaves() {
		if !live(l) {
			continue
		}
		pn := 0
		for a := l; a != tree.None; a = t.Node(a).Parent {
			p := t.Node(a).Parent
			if p == tree.None {
				continue
			}
			pn0 := t.Node(p).FirstChild
			for i := int32(0); i < t.Node(a).ChildIndex; i++ {
				sib := pn0 + tree.NodeID(i)
				if s.det[sib] < 0 { // live sibling (parent chain shared with a)
					pn++
				}
			}
		}
		out[l] = pn
	}
	return out
}

// One row per cost model.
func TestStepLimit(t *testing.T) {
	for _, row := range []struct {
		name string
		run  func(*tree.Tree, Options) (Metrics, error)
		tr   *tree.Tree
		max  int64
	}{
		{"leaf", SequentialSolve, tree.WorstCaseNOR(2, 10, 1), 5},
		{"node", NSequentialSolve, tree.WorstCaseNOR(2, 8, 1), 2},
	} {
		_, err := row.run(row.tr, Options{MaxSteps: row.max})
		if err != ErrStepLimit {
			t.Errorf("%s: want ErrStepLimit, got %v", row.name, err)
		}
	}
}

func TestSingleLeafTree(t *testing.T) {
	tr := tree.FromNested(tree.NOR, 1)
	m, err := ParallelSolve(tr, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Value != 1 || m.Steps != 1 || m.Work != 1 {
		t.Errorf("single leaf: %+v", m)
	}
}

// The exact i.i.d. theory (two-state DP in internal/bounds) must predict
// the measured mean sequential work. Deterministic given the seeds.
func TestSequentialWorkMatchesIIDTheory(t *testing.T) {
	const trials = 400
	for _, cse := range []struct {
		d, n int
		p    float64
	}{
		{2, 8, 0.5}, {2, 8, 0.618034}, {3, 5, 0.3}, {2, 10, 0.7},
	} {
		want := bounds.ExpectedSolveWork(cse.d, cse.n, cse.p)
		var sum float64
		for i := 0; i < trials; i++ {
			tr := tree.IIDNor(cse.d, cse.n, cse.p, int64(1000+i*37))
			m, err := SequentialSolve(tr, Options{})
			if err != nil {
				t.Fatal(err)
			}
			sum += float64(m.Work)
		}
		got := sum / trials
		if rel := (got - want) / want; rel < -0.12 || rel > 0.12 {
			t.Errorf("d=%d n=%d p=%v: measured mean %.2f vs theory %.2f (rel %.3f)",
				cse.d, cse.n, cse.p, got, want, rel)
		}
	}
}

// The root-value distribution must match the DP too.
func TestRootDistributionMatchesTheory(t *testing.T) {
	const trials = 1200
	d, n, p := 2, 9, 0.618034
	want := bounds.RootOneProbability(d, n, p)
	ones := 0
	for i := 0; i < trials; i++ {
		if tree.IIDNor(d, n, p, int64(5000+i)).Evaluate() == 1 {
			ones++
		}
	}
	got := float64(ones) / trials
	if diff := got - want; diff < -0.05 || diff > 0.05 {
		t.Errorf("P(root=1) measured %.3f vs theory %.3f", got, want)
	}
}

// The measured max parallel degree of a width-w run never exceeds the
// combinatorial processor bound sum_{k<=w} C(n,k)(d-1)^k.
func TestWidthProcessorBoundHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 20; trial++ {
		d := 2 + rng.Intn(2)
		n := 2 + rng.Intn(6)
		tr := tree.IIDNor(d, n, 0.382, rng.Int63())
		for w := 0; w <= 3; w++ {
			m, err := ParallelSolve(tr, w, Options{})
			if err != nil {
				t.Fatal(err)
			}
			bound := bounds.WidthProcessorBound(d, n, w)
			if bound.IsInt64() && int64(m.Processors) > bound.Int64() {
				t.Fatalf("trial %d d=%d n=%d w=%d: %d processors exceed bound %d",
					trial, d, n, w, m.Processors, bound.Int64())
			}
		}
	}
	// The worst case drives the degree close to the bound at w=1.
	tr := tree.WorstCaseNOR(2, 12, 1)
	m, err := ParallelSolve(tr, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if int64(m.Processors) != bounds.WidthProcessorBound(2, 12, 1).Int64() {
		t.Errorf("worst case width-1 procs %d, bound %d",
			m.Processors, bounds.WidthProcessorBound(2, 12, 1).Int64())
	}
}
