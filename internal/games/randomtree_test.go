package games

import (
	"context"
	"testing"

	"gametree/internal/engine"
)

func TestRandomTreeDeterministic(t *testing.T) {
	a := NewRandomTree(42, 5)
	b := NewRandomTree(42, 5)
	if a.Hash() != b.Hash() || a.Evaluate() != b.Evaluate() {
		t.Fatal("same seed must give identical positions")
	}
	am, bm := a.Moves(), b.Moves()
	if len(am) != 5 || len(bm) != 5 {
		t.Fatalf("branch 5 gave %d/%d moves", len(am), len(bm))
	}
	for i := range am {
		if am[i].(RandomTree).Hash() != bm[i].(RandomTree).Hash() {
			t.Fatalf("child %d differs across identical roots", i)
		}
	}
	if NewRandomTree(43, 5).Hash() == a.Hash() {
		t.Fatal("distinct seeds collided")
	}
	if NewRandomTree(42, 4).Hash() == a.Hash() {
		t.Fatal("distinct branch factors collided")
	}
	// Search determinism: the whole point of the workload.
	r1 := engine.Search(a, 6)
	r2 := engine.Search(b, 6)
	if r1.Value != r2.Value || r1.Nodes != r2.Nodes {
		t.Fatalf("searches diverged: %+v vs %+v", r1, r2)
	}
}

func TestRandomTreeAppendMovesMatchesMoves(t *testing.T) {
	p := NewRandomTree(7, 6)
	moves := p.Moves()
	appended := p.AppendMoves(nil)
	if len(moves) != len(appended) {
		t.Fatalf("lengths differ: %d vs %d", len(moves), len(appended))
	}
	for i := range moves {
		if moves[i].(RandomTree) != appended[i].(RandomTree) {
			t.Fatalf("move %d differs", i)
		}
	}
}

func TestRandomTreeEvaluateBounded(t *testing.T) {
	p := NewRandomTree(99, 3)
	for i := 0; i < 1000; i++ {
		v := p.Evaluate()
		if v < -1000 || v > 1000 {
			t.Fatalf("evaluate %d out of range at step %d", v, i)
		}
		p = p.child(int(p.Seed % uint64(p.Branch)))
	}
}

func TestRandomTreeEngineAgreement(t *testing.T) {
	for _, seed := range []uint64{1, 2, 1000} {
		p := NewRandomTree(seed, 4)
		const depth = 6
		seq := engine.Search(p, depth)
		par, err := engine.SearchOpt(context.Background(), p, depth, engine.SearchOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if par.Value != seq.Value {
			t.Errorf("seed %d: parallel %d != sequential %d", seed, par.Value, seq.Value)
		}
		tt, err := engine.SearchOpt(context.Background(), p, depth,
			engine.SearchOptions{Table: engine.NewTable(1 << 12), Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if tt.Value != seq.Value {
			t.Errorf("seed %d: parallel tt %d != sequential %d", seed, tt.Value, seq.Value)
		}
	}
}
