package tree

import "testing"

// negamax searches p to the end of the tree over Children and Evaluate
// alone.
func negamax(p Pos) int32 {
	kids := p.Children(nil)
	if len(kids) == 0 {
		return p.Evaluate()
	}
	best := int32(-1 << 30)
	for _, k := range kids {
		best = max(best, -negamax(k))
	}
	return best
}

// TestPosNegamaxMatchesEvaluate: read as a game, an arena tree's negamax
// value is the root value on a MinMax tree and 1 - 2·value on a NOR
// tree, on ragged trees too; Children appends into a sized buffer
// without allocating; Key names nodes apart and never claims a
// transposition.
func TestPosNegamaxMatchesEvaluate(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		for _, tr := range []*Tree{
			IIDMinMax(3, 4, -50, 50, seed),
			NearUniform(MinMax, 4, 5, 0.25, 0.5, seed, UniformValueLeaves(-50, 50, seed)),
		} {
			if got, want := negamax(Pos{T: tr}), tr.Evaluate(); got != want {
				t.Fatalf("seed %d: MinMax negamax %d, Evaluate %d", seed, got, want)
			}
		}
		for _, tr := range []*Tree{
			IIDNor(3, 4, 0.4, seed),
			NearUniform(NOR, 4, 5, 0.25, 0.5, seed, BernoulliLeaves(0.4, seed)),
		} {
			if got, want := negamax(Pos{T: tr}), 1-2*tr.Evaluate(); got != want {
				t.Fatalf("seed %d: NOR negamax %d, 1-2·Evaluate %d", seed, got, want)
			}
		}
	}

	tr := IIDMinMax(4, 3, 0, 9, 1)
	if v := (Pos{T: tr}).Evaluate(); v != 0 {
		t.Fatalf("interior node at a horizon scores %d, want 0", v)
	}
	buf := make([]Pos, 0, 4)
	if n := testing.AllocsPerRun(100, func() { buf = Pos{T: tr}.Children(buf[:0]) }); n != 0 {
		t.Fatalf("Children allocated %v times per call into a sized buffer", n)
	}
	seen := map[uint64]bool{}
	for id := range tr.Nodes {
		h, ok := Pos{tr, NodeID(id)}.Key()
		if ok || seen[h] {
			t.Fatalf("node %d: Key (%#x, %v): want a fresh hash and ok false", id, h, ok)
		}
		seen[h] = true
	}
}
