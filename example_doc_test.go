package gametree_test

// Runnable godoc examples for the main entry points. Each one is also a
// test: go test verifies the printed output.

import (
	"context"
	"fmt"

	"gametree"
)

// The sqrt(p) law of Proposition 1: Team SOLVE's speedup on a
// maximal-pruning instance doubles only every fourfold processor increase.
func ExampleTeamSolve() {
	t := gametree.BestCaseNOR(2, 12, 1)
	seq, _ := gametree.SequentialSolve(t, gametree.Options{})
	for _, p := range []int{4, 16, 64} {
		m, _ := gametree.TeamSolve(t, p, gametree.Options{})
		fmt.Printf("p=%-3d speedup %.0f\n", p, float64(seq.Steps)/float64(m.Steps))
	}
	// Output:
	// p=4   speedup 2
	// p=16  speedup 4
	// p=64  speedup 8
}

// The pruning process of Section 4 evaluates exactly the classical
// alpha-beta leaf set; on a perfectly ordered tree that is the
// Knuth-Moore optimum.
func ExampleSequentialAlphaBeta() {
	t := gametree.BestOrderedMinMax(2, 10, 1)
	m, _ := gametree.SequentialAlphaBeta(t, gametree.Options{})
	fmt.Printf("leaves evaluated: %d\n", m.Work)
	fmt.Printf("knuth-moore optimum: %d\n", gametree.Fact2(2, 10))
	// Output:
	// leaves evaluated: 63
	// knuth-moore optimum: 63
}

// Fact 1: no algorithm can beat the proof-tree bound; the best-case
// instance meets it.
func ExampleProofTreeSize() {
	t := gametree.BestCaseNOR(3, 6, 1)
	seq, _ := gametree.SequentialSolve(t, gametree.Options{})
	fmt.Printf("work %d, proof tree %d, Fact 1 bound %d\n",
		seq.Work, gametree.ProofTreeSize(t), gametree.Fact1(3, 6))
	// Output:
	// work 27, proof tree 27, Fact 1 bound 27
}

// The Section 7 message-passing machine computes exact values with one
// goroutine per level.
func ExampleEvaluateMessagePassing() {
	t := gametree.WorstCaseNOR(2, 10, 1)
	m, _ := gametree.EvaluateMessagePassing(t, gametree.MsgPassOptions{})
	fmt.Printf("value %d with %d processors\n", m.Value, m.Processors)
	// Output:
	// value 1 with 11 processors
}

// Horn-clause proving is AND/OR tree evaluation (the paper's Section 1
// motivation).
func ExampleHornKB() {
	kb, _ := gametree.NewHornKB([]gametree.HornRule{
		{Head: "socrates"},
		{Head: "man", Body: []string{"socrates"}},
		{Head: "mortal", Body: []string{"man"}},
	})
	ok, _ := kb.ProvableByTree("mortal")
	fmt.Println("mortal provable:", ok)
	// Output:
	// mortal provable: true
}

// Nim's closed-form xor rule validates the engine.
func ExampleNewNim() {
	p := gametree.NewNim(1, 2, 3) // nim-sum 0: second player wins
	r := gametree.Search(p, p.TotalObjects())
	fmt.Println("first player wins:", r.Value > 0, "— xor rule:", p.XorValue() != 0)
	// Output:
	// first player wins: false — xor rule: false
}

// The exact i.i.d. theory of Section 6.
func ExampleExpectedSolveWork() {
	q := gametree.StationaryBias(2)
	fmt.Printf("stationary bias: %.4f\n", q)
	fmt.Printf("E[S(T)] on B(2,10): %.1f\n", gametree.ExpectedSolveWork(2, 10, q))
	// Output:
	// stationary bias: 0.3820
	// E[S(T)] on B(2,10): 123.0
}

// Iterative deepening returns the principal variation: the forced line of
// perfect play.
func ExampleSearchIterative() {
	pos := gametree.NewDomineering(2, 2) // Vertical to move, wins
	r, pv, _ := gametree.SearchIterative(context.Background(), pos, 4, gametree.EngineOptions{})
	fmt.Println("vertical wins:", r.Value > 0, "| moves in pv:", len(pv))
	// Output:
	// vertical wins: true | moves in pv: 1
}

// Kayles' Grundy theory gives another closed-form oracle.
func ExampleNewKayles() {
	p := gametree.NewKayles(5, 4, 1)
	r := gametree.Search(p, p.TotalPins()+1)
	fmt.Println("first player wins:", r.Value > 0, "— Grundy:", p.GrundyValue() != 0)
	// Output:
	// first player wins: true — Grundy: true
}

// Proof-number search on a resident pool proves a Nim position to the
// verdict Sprague-Grundy predicts: the side to move wins exactly when
// the nim-sum is nonzero.
func ExampleSolveParallel() {
	pool := gametree.NewEnginePool(2, nil, nil)
	defer pool.Close()
	for _, heaps := range [][]int{{1, 2, 4}, {1, 2, 3}} {
		p := gametree.NewNim(heaps...)
		r, _ := gametree.SolveParallel(context.Background(), pool, p, gametree.ProofOptions{})
		fmt.Printf("nim %v: %s, nim-sum %d\n", heaps, r.Verdict, p.XorValue())
	}
	// Output:
	// nim [1 2 4]: proven, nim-sum 7
	// nim [1 2 3]: disproven, nim-sum 0
}
