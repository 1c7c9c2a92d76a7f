package gametree_test

import (
	"context"
	"fmt"
	"testing"

	"gametree"
)

// The public facade is exercised end to end, the way a downstream user
// would: generators -> simulators -> models -> engine.

func TestPublicQuickstartFlow(t *testing.T) {
	tr := gametree.WorstCaseNOR(2, 10, 1)
	seq, err := gametree.SequentialSolve(tr, gametree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := gametree.ParallelSolve(tr, 1, gametree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Value != 1 || par.Value != 1 {
		t.Fatalf("values: %d %d", seq.Value, par.Value)
	}
	if par.Steps >= seq.Steps {
		t.Errorf("no speedup: %d vs %d", par.Steps, seq.Steps)
	}
	if par.Processors > tr.Height+1 {
		t.Errorf("width 1 used %d processors", par.Processors)
	}
}

func TestPublicModelsAgree(t *testing.T) {
	tr := gametree.IIDNor(2, 8, gametree.CriticalBias(2), 42)
	want := tr.Evaluate()

	leaf, err := gametree.ParallelSolve(tr, 1, gametree.Options{})
	if err != nil || leaf.Value != want {
		t.Errorf("leaf model: %v %v", leaf.Value, err)
	}
	nexp, err := gametree.NParallelSolve(tr, 1, gametree.ExpandOptions{})
	if err != nil || nexp.Value != want {
		t.Errorf("node-expansion model: %v %v", nexp.Value, err)
	}
	if v, _ := gametree.RSequentialSolve(tr, 7); v != want {
		t.Errorf("randomized: %v", v)
	}
	mp, err := gametree.EvaluateMessagePassing(tr, gametree.MsgPassOptions{})
	if err != nil || mp.Value != want {
		t.Errorf("message passing: %v %v", mp.Value, err)
	}
	if got := gametree.Minimax(tr).Value; got != want {
		t.Errorf("minimax: %v", got)
	}
}

func TestPublicMinMaxSurface(t *testing.T) {
	tr := gametree.BestOrderedMinMax(2, 8, 3)
	ab := gametree.AlphaBeta(tr)
	if ab.Leaves != gametree.Fact2(2, 8) {
		t.Errorf("Knuth-Moore optimum missed: %d vs %d", ab.Leaves, gametree.Fact2(2, 8))
	}
	sc := gametree.Scout(tr)
	if sc.Value != ab.Value {
		t.Errorf("SCOUT disagrees: %d vs %d", sc.Value, ab.Value)
	}
	seq, err := gametree.SequentialAlphaBeta(tr, gametree.Options{})
	if err != nil || seq.Value != ab.Value || seq.Work != ab.Leaves {
		t.Errorf("pruning process: %+v %v", seq, err)
	}
	par, err := gametree.ParallelAlphaBeta(tr, 1, gametree.Options{})
	if err != nil || par.Value != ab.Value {
		t.Errorf("parallel alpha-beta: %+v %v", par, err)
	}
	np, err := gametree.NParallelAlphaBeta(tr, 1, gametree.ExpandOptions{})
	if err != nil || np.Value != ab.Value {
		t.Errorf("node-expansion alpha-beta: %+v %v", np, err)
	}
	rp, err := gametree.RParallelAlphaBeta(tr, 1, 11, gametree.ExpandOptions{})
	if err != nil || rp.Value != ab.Value {
		t.Errorf("randomized parallel alpha-beta: %+v %v", rp, err)
	}
	if v, _ := gametree.RSequentialAlphaBeta(tr, 5); v != ab.Value {
		t.Errorf("randomized alpha-beta: %v", v)
	}
}

func TestPublicTreeUtilities(t *testing.T) {
	tr, err := gametree.ParseSExpr(gametree.MinMax, "((3 5) (2 9))")
	if err != nil || tr.Evaluate() != 3 {
		t.Fatalf("sexpr: %v %v", tr, err)
	}
	nested := gametree.FromNested(gametree.NOR, []any{1, 0})
	if nested.Evaluate() != 0 {
		t.Error("nested NOR")
	}
	perm := gametree.Permute(nested, 1)
	if perm.Evaluate() != 0 {
		t.Error("permute changed NOR value")
	}
	b := gametree.NewBuilder(gametree.NOR)
	first := b.AddChildren(b.Root(), 2)
	b.SetLeafValue(first, 0)
	b.SetLeafValue(first+1, 0)
	built := b.Build()
	if built.Evaluate() != 1 {
		t.Error("builder tree")
	}
	wc := gametree.BestCaseNOR(2, 6, 1)
	seq, err := gametree.SequentialSolve(wc, gametree.Options{RecordLeaves: true})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Work != gametree.ProofTreeSize(wc) {
		t.Error("best case should match proof tree size")
	}
	h, _ := gametree.Skeleton(wc, seq.Leaves)
	if int64(h.NumLeaves()) != seq.Work {
		t.Error("skeleton leaves mismatch")
	}
	near := gametree.NearUniform(gametree.NOR, 4, 8, 0.5, 0.5, 1, nil)
	if err := near.Validate(); err != nil {
		t.Error(err)
	}
	u := gametree.Uniform(gametree.MinMax, 3, 2, func(i int) int32 { return int32(i) })
	if u.NumLeaves() != 9 {
		t.Error("uniform leaves")
	}
}

func TestPublicEngine(t *testing.T) {
	// A two-ply position: mover picks the child minimizing the
	// opponent's best reply.
	pos := examplePos{
		kids: []examplePos{
			{val: -3},
			{val: -8},
		},
	}
	r := gametree.Search(pos, 4)
	if r.Value != 8 || r.Best != 1 {
		t.Errorf("search: %+v", r)
	}
	pr, err := gametree.SearchParallel(context.Background(), pos, 4, 2)
	if err != nil || pr.Value != 8 {
		t.Errorf("parallel: %+v %v", pr, err)
	}
	idx, err := gametree.Play(context.Background(), pos, 4, 2)
	if err != nil || idx != 1 {
		t.Errorf("play: %d %v", idx, err)
	}
}

type examplePos struct {
	kids []examplePos
	val  int32
}

func (p examplePos) Moves() []gametree.Position {
	out := make([]gametree.Position, len(p.kids))
	for i, k := range p.kids {
		out[i] = k
	}
	return out
}

func (p examplePos) Evaluate() int32 { return p.val }

func TestPublicBounds(t *testing.T) {
	if gametree.Fact1(2, 10) != 32 {
		t.Error("Fact1")
	}
	if gametree.Fact2(2, 10) != 63 {
		t.Error("Fact2")
	}
	if b := gametree.CriticalBias(2); b < 0.61 || b > 0.62 {
		t.Errorf("critical bias %v", b)
	}
}

// ExampleParallelSolve demonstrates the headline Theorem 1 measurement.
func ExampleParallelSolve() {
	t := gametree.WorstCaseNOR(2, 12, 1)
	seq, _ := gametree.SequentialSolve(t, gametree.Options{})
	par, _ := gametree.ParallelSolve(t, 1, gametree.Options{})
	fmt.Printf("sequential steps: %d\n", seq.Steps)
	fmt.Printf("parallel processors: %d\n", par.Processors)
	fmt.Printf("speedup at least (n+1)/3: %v\n", seq.Steps/par.Steps >= int64(t.Height+1)/3)
	// Output:
	// sequential steps: 4096
	// parallel processors: 13
	// speedup at least (n+1)/3: true
}

func TestPublicNewSurface(t *testing.T) {
	// SSS* agrees with alpha-beta and dominates it.
	mm := gametree.WorstOrderedMinMax(2, 8, 1)
	sss := gametree.SSS(mm)
	ab := gametree.AlphaBeta(mm)
	if sss.Value != ab.Value || sss.Leaves > ab.Leaves {
		t.Errorf("SSS %+v vs AB %+v", sss, ab)
	}

	// AND/OR conversions.
	nor := gametree.IIDNor(2, 6, 0.618, 9)
	ao := gametree.NORToAndOr(nor)
	if ao.Evaluate() != 1-nor.Evaluate() {
		t.Error("NORToAndOr complement broken")
	}
	if back := gametree.AndOrToNOR(ao); back.Evaluate() != nor.Evaluate() {
		t.Error("AndOrToNOR round trip broken")
	}

	// Message-passing alpha-beta machine.
	mp, err := gametree.EvaluateMessagePassingAlphaBeta(gametree.IIDMinMax(2, 7, -50, 50, 3), gametree.MsgPassOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if mp.Value != gametree.IIDMinMax(2, 7, -50, 50, 3).Evaluate() {
		t.Error("msgpass alpha-beta wrong value")
	}

	// Fixed-processor variants.
	fx, err := gametree.ParallelSolveFixed(nor, 2, 3, gametree.Options{})
	if err != nil || fx.Value != nor.Evaluate() || fx.Processors > 3 {
		t.Errorf("fixed solve: %+v %v", fx, err)
	}
	fm, err := gametree.ParallelAlphaBetaFixed(mm, 1, 2, gametree.Options{})
	if err != nil || fm.Value != mm.Evaluate() || fm.Processors > 2 {
		t.Errorf("fixed alpha-beta: %+v %v", fm, err)
	}

	// Trace API: codes strictly decrease for width 1.
	steps, _, err := gametree.TraceParallelSolve(nor, 1, gametree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(steps); i++ {
		if gametree.CompareCodes(steps[i].Code, steps[i-1].Code) >= 0 {
			t.Fatal("codes not decreasing")
		}
	}

	// Engine extensions on a real game.
	tab := gametree.NewTranspositionTable(1 << 14)
	pos := gametree.NewDomineering(4, 3)
	plain := gametree.Search(pos, 7)
	tt, err := gametree.SearchOpt(context.Background(), pos, 7, gametree.EngineOptions{Table: tab, Workers: 1})
	if err != nil || tt.Value != plain.Value {
		t.Errorf("SearchTT %d != %d (err %v)", tt.Value, plain.Value, err)
	}
	it, pv, err := gametree.SearchIterative(context.Background(), pos, 7, gametree.EngineOptions{})
	if err != nil || it.Value != plain.Value || len(pv) == 0 {
		t.Errorf("iterative: %+v %v %v", it, pv, err)
	}
	pt, err := gametree.SearchOpt(context.Background(), pos, 7, gametree.EngineOptions{Workers: 4})
	if err != nil || pt.Value != plain.Value {
		t.Errorf("parallel tt: %+v %v", pt, err)
	}
}

// Sweep the remaining public surface: overflow sentinels, profiles, the
// game parsers and the second facade's helpers.
func TestPublicSurfaceRemainder(t *testing.T) {
	// Overflow sentinels return -1 rather than wrapping.
	if gametree.Fact1(2, 200) != -1 || gametree.Fact2(2, 200) != -1 {
		t.Error("big bounds should report -1")
	}
	if gametree.WidthProcessorBound(2, 500, 250) != -1 {
		t.Error("huge processor bound should report -1")
	}
	if gametree.WidthProcessorBound(2, 12, 1) != 13 {
		t.Error("width-1 bound on B(2,12) is 13")
	}

	// Profiles replay under Brent scheduling.
	tr := gametree.WorstCaseNOR(2, 10, 1)
	m, err := gametree.ParallelSolve(tr, 1, gametree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prof := gametree.ProfileOf(m)
	if prof.Work() != m.Work || prof.Steps() != m.Steps {
		t.Error("profile mismatch")
	}
	if prof.Replay(tr.Height+1) != m.Steps {
		t.Error("replay at n+1 processors must equal the step count")
	}

	// Game parsers and helpers.
	p, err := gametree.ParseTicTacToe("XOX.O..X.")
	if err != nil || p.Winner() != 0 {
		t.Errorf("parse: %v %v", p, err)
	}
	c4 := gametree.StandardConnect4()
	if c4.W != 7 || c4.H != 6 || c4.Need != 4 {
		t.Error("standard board dimensions")
	}
	kb, goal := gametree.LayeredHornKB(3, 2, 2, 2, 0.5, 1)
	if _, err := kb.ProofTree(goal, 0); err != nil {
		t.Error(err)
	}

	// Message-passing alpha-beta under zones.
	mm := gametree.IIDMinMax(2, 6, -50, 50, 4)
	mp, err := gametree.EvaluateMessagePassingAlphaBeta(mm, gametree.MsgPassOptions{Processors: 2})
	if err != nil || mp.Value != mm.Evaluate() {
		t.Errorf("msgpass ab zones: %+v %v", mp, err)
	}

	// The zero-window driver and the team variants through the facade.
	md, err := gametree.MTDF(context.Background(), gametree.NewNim(2, 3), 6, 0, gametree.EngineOptions{})
	if err != nil || (md.Value > 0) != (gametree.NewNim(2, 3).XorValue() != 0) {
		t.Errorf("mtdf: %+v %v", md, err)
	}
	ta, err := gametree.TeamAlphaBeta(mm, 3, gametree.Options{})
	if err != nil || ta.Value != mm.Evaluate() {
		t.Errorf("team ab: %+v %v", ta, err)
	}
	nt, err := gametree.NTeamSolve(tr, 3, gametree.ExpandOptions{})
	if err != nil || nt.Value != 1 {
		t.Errorf("n-team: %+v %v", nt, err)
	}
	if v, _ := gametree.RScout(mm, 9); v != mm.Evaluate() {
		t.Errorf("rscout: %v", v)
	}

	// Binarize + message passing end to end through the facade.
	ternary := gametree.IIDNor(3, 4, 0.3, 2)
	bin := gametree.BinarizeNOR(ternary)
	bm, err := gametree.EvaluateMessagePassing(bin, gametree.MsgPassOptions{})
	if err != nil || bm.Value != ternary.Evaluate() {
		t.Errorf("binarized msgpass: %+v %v", bm, err)
	}
}
