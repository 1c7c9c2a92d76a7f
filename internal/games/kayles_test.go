package games

import (
	"context"
	"testing"

	"gametree/internal/engine"
)

// grundyByRecursion computes Grundy values from first principles (mex over
// moves), independent of the table.
func grundyByRecursion(n int, memo map[int]int) int {
	if g, ok := memo[n]; ok {
		return g
	}
	reach := map[int]bool{}
	for take := 1; take <= 2 && take <= n; take++ {
		for o := 0; o+take <= n; o++ {
			reach[grundyByRecursion(o, memo)^grundyByRecursion(n-o-take, memo)] = true
		}
	}
	g := 0
	for reach[g] {
		g++
	}
	memo[n] = g
	return g
}

func TestKaylesGrundyTableAgainstRecursion(t *testing.T) {
	memo := map[int]int{0: 0}
	for n := 0; n <= 120; n++ {
		want := grundyByRecursion(n, memo)
		if got := KaylesGrundy(n); got != want {
			t.Fatalf("G(%d) = %d, recursion says %d", n, got, want)
		}
	}
}

func TestKaylesEngineMatchesGrundyTheory(t *testing.T) {
	cases := [][]int{
		{1}, {2}, {3}, {5}, {1, 1}, {2, 1}, {3, 4},
		{2, 2}, {5, 4, 1}, {6, 3},
	}
	tab := engine.NewTable(1 << 16)
	for _, rows := range cases {
		p := NewKayles(rows...)
		depth := p.TotalPins() + 1
		r, err := engine.SearchOpt(context.Background(), p, depth, engine.SearchOptions{Table: tab, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		engineWin := r.Value > 0
		theoryWin := p.GrundyValue() != 0
		if engineWin != theoryWin {
			t.Errorf("kayles%v: engine win=%v, Grundy theory win=%v (G=%d)",
				rows, engineWin, theoryWin, p.GrundyValue())
		}
	}
}

func TestKaylesParallelAgrees(t *testing.T) {
	p := NewKayles(4, 3)
	depth := p.TotalPins() + 1
	seq := engine.Search(p, depth)
	par, err := engine.SearchOpt(context.Background(), p, depth, engine.SearchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if par.Value != seq.Value {
		t.Errorf("parallel %d != sequential %d", par.Value, seq.Value)
	}
}

func TestKaylesBasics(t *testing.T) {
	p := NewKayles(0)
	if len(p.Moves()) != 0 || p.Evaluate() != -engine.WinScore() {
		t.Error("empty kayles should be a terminal loss")
	}
	one := NewKayles(1)
	if len(one.Moves()) != 1 {
		t.Errorf("row of 1: %d moves", len(one.Moves()))
	}
	two := NewKayles(2)
	// take 1 -> [1] (offsets 0 and 1 are mirrors: one successor); take 2 -> [].
	if len(two.Moves()) != 2 {
		t.Errorf("row of 2: %d moves", len(two.Moves()))
	}
	if NewKayles(3, 1).String() != "kayles[1 3]" {
		t.Errorf("String: %s", NewKayles(3, 1))
	}
	// Hash is order-canonical.
	if NewKayles(3, 1).Hash() != NewKayles(1, 3).Hash() {
		t.Error("hash not canonical under row order")
	}
	if NewKayles(3).Hash() == NewKayles(1, 2).Hash() {
		t.Error("distinct positions share a hash")
	}
}

func TestKaylesPanics(t *testing.T) {
	mustPanic := func(f func()) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		f()
	}
	mustPanic(func() { NewKayles(-1) })
	mustPanic(func() { KaylesGrundy(-2) })
}
