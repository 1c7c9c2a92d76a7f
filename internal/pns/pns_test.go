package pns

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"testing"
	"time"

	"gametree/internal/engine"
	"gametree/internal/games"
	"gametree/internal/tree"
)

// randomNim returns a Nim position small enough to solve quickly but
// large enough to need a real tree.
func randomNim(rng *rand.Rand) games.Nim {
	heaps := make([]int, 2+rng.Intn(3))
	for i := range heaps {
		heaps[i] = 1 + rng.Intn(6)
	}
	return games.NewNim(heaps...)
}

// randomKayles returns a Kayles position with a few short rows.
func randomKayles(rng *rand.Rand) games.Kayles {
	rows := make([]int, 1+rng.Intn(3))
	for i := range rows {
		rows[i] = 1 + rng.Intn(6)
	}
	return games.NewKayles(rows...)
}

func verdictWord(win bool) Verdict {
	if win {
		return Proven
	}
	return Disproven
}

// TestSolveMatchesSpragueGrundy checks the pooled parallel solver
// against the closed-form oracles on ≥50 random instances: Nim's xor
// rule and Kayles' periodic Grundy values. All instances share one
// table and one pool, so the test also exercises TT cross-seeding
// between solves.
func TestSolveMatchesSpragueGrundy(t *testing.T) {
	table := engine.NewTable(1 << 14)
	pool := engine.NewPool(4, table, nil)
	defer pool.Close()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 30; i++ {
		pos := randomNim(rng)
		want := verdictWord(pos.XorValue() != 0)
		s := New(pos, Options{Table: table})
		res, err := s.SolveParallel(context.Background(), pool)
		if err != nil {
			t.Fatalf("nim %v: %v", pos, err)
		}
		if res.Verdict != want {
			t.Fatalf("nim %v: verdict %v, xor oracle says %v", pos, res.Verdict, want)
		}
	}
	for i := 0; i < 30; i++ {
		pos := randomKayles(rng)
		want := verdictWord(pos.GrundyValue() != 0)
		s := New(pos, Options{Table: table})
		res, err := s.SolveParallel(context.Background(), pool)
		if err != nil {
			t.Fatalf("kayles %v: %v", pos, err)
		}
		if res.Verdict != want {
			t.Fatalf("kayles %v: verdict %v, Grundy oracle says %v", pos, res.Verdict, want)
		}
	}
}

// TestSequentialMatchesOracle covers the sequential baseline and PN²
// on the same oracles, Nim and Kayles. Each solve gets a fresh table:
// over a shared one the PN² solve would find the root the plain solve
// had just stored and never reach its second level.
func TestSequentialMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
		nim, kayles := randomNim(rng), randomKayles(rng)
		for _, in := range []struct {
			pos  engine.Position
			want Verdict
		}{
			{nim, verdictWord(nim.XorValue() != 0)},
			{kayles, verdictWord(kayles.GrundyValue() != 0)},
		} {
			for _, pn2 := range []int64{0, 8} {
				s := New(in.pos, Options{PN2Budget: pn2, Table: engine.NewTable(1 << 12)})
				res, err := s.Solve(context.Background())
				if err != nil {
					t.Fatalf("%v pn2=%d: %v", in.pos, pn2, err)
				}
				if res.Verdict != in.want {
					t.Fatalf("%v pn2=%d: verdict %v, want %v", in.pos, pn2, res.Verdict, in.want)
				}
			}
		}
	}
}

// TestW1NodeParity pins the virtual-number discipline: with one worker
// the virtual counts are zero at every selection point, so the pooled
// solver must expand exactly the node sequence — and count — of
// sequential PN. Tables are nil so no cross-seeding perturbs either run.
func TestW1NodeParity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pool := engine.NewPool(1, nil, nil)
	defer pool.Close()
	for i := 0; i < 8; i++ {
		heaps := make([]int, 2+rng.Intn(2))
		for j := range heaps {
			heaps[j] = 1 + rng.Intn(4)
		}
		pos := games.NewNim(heaps...)
		seq := New(pos, Options{})
		seqRes, err := seq.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		par := New(pos, Options{})
		parRes, err := par.SolveParallel(context.Background(), pool)
		if err != nil {
			t.Fatal(err)
		}
		if seqRes.Expands != parRes.Expands || seqRes.Nodes != parRes.Nodes {
			t.Fatalf("nim %v: sequential (expands=%d nodes=%d) != w=1 pooled (expands=%d nodes=%d)",
				pos, seqRes.Expands, seqRes.Nodes, parRes.Expands, parRes.Nodes)
		}
		if seqRes.Verdict != parRes.Verdict {
			t.Fatalf("nim %v: verdicts diverge: %v vs %v", pos, seqRes.Verdict, parRes.Verdict)
		}
	}
}

// multisets appends to out every nondecreasing sequence of k values in
// lo..hi that extends prefix.
func multisets(out [][]int, prefix []int, k, lo, hi int) [][]int {
	if len(prefix) == k {
		return append(out, append([]int(nil), prefix...))
	}
	for v := lo; v <= hi; v++ {
		out = multisets(out, append(prefix, v), k, v, hi)
	}
	return out
}

// TestSolveMixTransposes solves every small Nim and Kayles position — Nim
// with 3 or 4 heaps of 1..9, Kayles with 2 or 3 rows of 1..7, 772 in all
// — smallest first over one table, the order a server meets them in.
// Every verdict must match Sprague–Grundy, and the total expansion count
// stays small only while each distinct position has one table key and
// one successor: heap-order keys and duplicate successors cost 15× more.
func TestSolveMixTransposes(t *testing.T) {
	type instance struct {
		pos   engine.Position
		want  Verdict
		total int
	}
	var all []instance
	for _, g := range []struct {
		kayles        bool
		parts, lo, hi int
	}{{false, 3, 1, 9}, {false, 4, 1, 9}, {true, 2, 1, 7}, {true, 3, 1, 7}} {
		for _, m := range multisets(nil, nil, g.parts, g.lo, g.hi) {
			total := 0
			for _, v := range m {
				total += v
			}
			if g.kayles {
				pos := games.NewKayles(m...)
				all = append(all, instance{pos, verdictWord(pos.GrundyValue() != 0), total})
			} else {
				pos := games.NewNim(m...)
				all = append(all, instance{pos, verdictWord(pos.XorValue() != 0), total})
			}
		}
	}
	if len(all) != 772 {
		t.Fatalf("%d positions, want 772", len(all))
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].total < all[j].total })

	table := engine.NewTable(1 << 16)
	var expands int64
	for _, in := range all {
		res, err := New(in.pos, Options{Table: table}).Solve(context.Background())
		if err != nil {
			t.Fatalf("%v: %v", in.pos, err)
		}
		if res.Verdict != in.want {
			t.Fatalf("%v: verdict %v, Sprague–Grundy says %v", in.pos, res.Verdict, in.want)
		}
		expands += res.Expands
	}
	if expands > 2000 {
		t.Fatalf("772 solves over one table took %d expansions, want at most 2000", expands)
	}
	t.Logf("772 solves, %d expansions", expands)
}

// TestArenaNOR solves random NOR trees read as games through tree.Pos:
// Proven must coincide with the NOR root evaluating to 0.
func TestArenaNOR(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		tr := tree.IIDNor(4, 3, 0.35, seed)
		pos := engine.NewNode(tree.Pos{T: tr})
		want := verdictWord(tr.Evaluate() == 0)
		s := New(pos, Options{})
		res, err := s.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != want {
			t.Fatalf("seed %d: verdict %v, NOR root is %d", seed, res.Verdict, tr.Evaluate())
		}
	}
}

// TestMaxNodesResume stops a solve on a tiny node budget, checks the
// partial state, then resumes the same solver to completion: plain PN,
// and PN², whose nested trees do not count toward the budget.
func TestMaxNodesResume(t *testing.T) {
	for _, tc := range []struct {
		name string
		pos  games.Nim
		opt  Options
	}{
		{"pn", games.NewNim(3, 5, 7), Options{MaxNodes: 5}},
		{"pn2", games.NewNim(5, 6, 7, 9), Options{MaxNodes: 20, PN2Budget: 4, Table: engine.NewTable(1 << 12)}},
	} {
		s := New(tc.pos, tc.opt)
		res, err := s.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != Unknown {
			t.Fatalf("%s: budget %d solved %v already: %+v", tc.name, tc.opt.MaxNodes, tc.pos, res)
		}
		prog := s.Progress()
		if prog.TreeNodes < tc.opt.MaxNodes {
			t.Fatalf("%s: stopped at %d tree nodes, budget was %d", tc.name, prog.TreeNodes, tc.opt.MaxNodes)
		}
		if prog.PN == 0 || prog.DN == 0 {
			t.Fatalf("%s: partial progress claims a solved root: %+v", tc.name, prog)
		}
		s.SetMaxNodes(0)
		res2, err := s.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res2.Verdict != verdictWord(tc.pos.XorValue() != 0) {
			t.Fatalf("%s: resumed verdict %v", tc.name, res2.Verdict)
		}
		if res2.Expands <= res.Expands {
			t.Fatalf("%s: resume did not continue counting: %d then %d", tc.name, res.Expands, res2.Expands)
		}
	}
}

// TestMaxNodesBoundsTree solves a four-heap Nim position far too big to
// finish on a node budget and checks that the tree stops within it plus
// one expansion's fan-out (the root's is the largest: one child per
// distinct heap reduction), sequentially and on two workers, each of
// which may finish one expansion past the budget.
func TestMaxNodesBoundsTree(t *testing.T) {
	pos := games.NewNim(20, 30, 40, 50)
	fanout := int64(len(pos.Moves()))
	const budget = 20000
	s := New(pos, Options{MaxNodes: budget})
	res, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if tree := s.Progress().TreeNodes; res.Verdict != Unknown || tree < budget || tree > budget+fanout {
		t.Fatalf("sequential: verdict %v, %d tree nodes after %d expands; budget %d, fan-out %d",
			res.Verdict, tree, res.Expands, budget, fanout)
	}

	pool := engine.NewPool(2, nil, nil)
	defer pool.Close()
	s = New(pos, Options{MaxNodes: budget})
	res, err = s.SolveParallel(context.Background(), pool)
	if err != nil {
		t.Fatal(err)
	}
	if tree := s.Progress().TreeNodes; res.Verdict != Unknown || tree < budget || tree > budget+2*fanout {
		t.Fatalf("two workers: verdict %v, %d tree nodes after %d expands; budget %d, fan-out %d",
			res.Verdict, tree, res.Expands, budget, fanout)
	}
}

// TestDeadline checks the cancellation contract on both paths: an
// expired context yields engine.ErrCancelled wrapping
// context.DeadlineExceeded and an Unknown partial result, and the
// solver stays resumable afterwards.
func TestDeadline(t *testing.T) {
	pool := engine.NewPool(2, nil, nil)
	defer pool.Close()
	pos := games.NewNim(9, 10, 11, 12)

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	s := New(pos, Options{})
	res, err := s.SolveParallel(ctx, pool)
	if !errors.Is(err, engine.ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("pooled deadline error %v", err)
	}
	if res.Verdict != Unknown {
		t.Fatalf("expired deadline produced verdict %v", res.Verdict)
	}

	s2 := New(pos, Options{})
	_, err = s2.Solve(ctx)
	if !errors.Is(err, engine.ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("sequential deadline error %v", err)
	}

	// The deadline-stopped solver resumes on a healthy context (budget-
	// bounded: the position is deliberately too big to finish here).
	s.opt.MaxNodes = 2000
	if _, err := s.SolveParallel(context.Background(), pool); err != nil {
		t.Fatal(err)
	}
}

// TestTTSharing solves the same position twice over one table; the
// second solver must start from the stored solved root and finish
// without expanding anything.
func TestTTSharing(t *testing.T) {
	table := engine.NewTable(1 << 12)
	pos := games.NewNim(4, 5)
	first := New(pos, Options{Table: table})
	if _, err := first.Solve(context.Background()); err != nil {
		t.Fatal(err)
	}
	second := New(pos, Options{Table: table})
	res, err := second.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != verdictWord(pos.XorValue() != 0) {
		t.Fatalf("warm verdict %v", res.Verdict)
	}
	if res.Expands != 0 {
		t.Fatalf("warm solve expanded %d nodes; the table held the solved root", res.Expands)
	}
}

// TestVerdictString pins the wire words used by /v1/solve.
func TestVerdictString(t *testing.T) {
	for v, want := range map[Verdict]string{Unknown: "unknown", Proven: "proven", Disproven: "disproven"} {
		if v.String() != want {
			t.Fatalf("%d.String() = %q", v, v.String())
		}
	}
}
