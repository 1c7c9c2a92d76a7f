package games

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"gametree/internal/core"
	"gametree/internal/engine"
)

// ---------------------------------------------------------------------------
// Tic-tac-toe

func TestTTTIsADraw(t *testing.T) {
	// The full game tree of tic-tac-toe is a draw under perfect play.
	r := engine.Search(TTT{}, 9)
	if r.Value != 0 {
		t.Errorf("tic-tac-toe value = %d, want 0 (draw)", r.Value)
	}
}

func TestTTTParallelAgrees(t *testing.T) {
	seq := engine.Search(TTT{}, 9)
	par, err := engine.SearchOpt(context.Background(), TTT{}, 9, engine.SearchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Value != par.Value {
		t.Errorf("parallel %d != sequential %d", par.Value, seq.Value)
	}
}

func TestTTTForcedWin(t *testing.T) {
	// X to move with two in a row must win immediately.
	p, err := ParseTTT("XX.OO....")
	if err != nil {
		t.Fatal(err)
	}
	r := engine.Search(p, 9)
	if r.Value != engine.WinScore() {
		t.Errorf("value %d, want winning score", r.Value)
	}
	q := p.Moves()[r.Best].(TTT)
	if cell := p.MoveCell(q); cell != 2 {
		t.Errorf("best move fills cell %d, want 2", cell)
	}
}

func TestTTTBlocksThreat(t *testing.T) {
	// O must block X's two in a row (cells 0,1 -> block at 2).
	p, err := ParseTTT("XX....O..")
	if err != nil {
		t.Fatal(err)
	}
	if p.mover() != 2 {
		t.Fatalf("expected O to move, got %d", p.mover())
	}
	r := engine.Search(p, 9)
	q := p.Moves()[r.Best].(TTT)
	if cell := p.MoveCell(q); cell != 2 {
		t.Errorf("O played %d, must block at 2", cell)
	}
}

func TestTTTWinnerAndTerminal(t *testing.T) {
	p, err := ParseTTT("XXXOO....")
	if err != nil {
		t.Fatal(err)
	}
	if p.Winner() != 1 {
		t.Errorf("winner %d, want X", p.Winner())
	}
	if len(p.Moves()) != 0 {
		t.Error("finished game should have no moves")
	}
	if p.Evaluate() != -engine.WinScore() {
		t.Errorf("loser-to-move evaluation %d", p.Evaluate())
	}
}

func TestParseTTTErrors(t *testing.T) {
	for _, bad := range []string{"", "XXXX", "XXXXXXXXXX", "OOOOOOOOO", "O........", "XX......."} {
		if _, err := ParseTTT(bad); err == nil {
			t.Errorf("ParseTTT(%q) should fail", bad)
		}
	}
	p, err := ParseTTT("X O\n...\n..X") // whitespace ignored, 9 cells X/O/.
	if err == nil {
		_ = p
	}
	good, err := ParseTTT("XOX.O..X.")
	if err != nil {
		t.Fatal(err)
	}
	if good.mover() != 2 { // 4 X vs 2 O -> wait: X=3 O=2 -> O? count: X,O,X,.,O,.,.,X,. -> X=3 O=2 -> O moves
		t.Errorf("mover = %d", good.mover())
	}
	if !strings.Contains(good.String(), "XOX") {
		t.Errorf("String:\n%s", good)
	}
}

// ---------------------------------------------------------------------------
// Connect 4

func TestConnect4WinDetection(t *testing.T) {
	for _, tc := range []struct {
		w, h, need int
		seq        []int // the last move wins
	}{
		// X:0 O:4 X:1 O:4 X:2 -> X wins (3 in a row).
		{5, 4, 3, []int{0, 4, 1, 4, 2}},
		// On the standard board: a row for O, then a rising diagonal for X.
		{7, 6, 4, []int{0, 3, 0, 4, 1, 5, 1, 6}},
		{7, 6, 4, []int{0, 1, 1, 2, 2, 3, 2, 3, 3, 6, 3}},
		// A falling diagonal on the largest board one word holds.
		{8, 7, 4, []int{7, 6, 6, 5, 5, 4, 5, 4, 4, 0, 4}},
		// A board whose only lines are its two rows.
		{3, 2, 3, []int{0, 0, 1, 1, 2}},
	} {
		cur := NewConnect4(tc.w, tc.h, tc.need)
		for i, c := range tc.seq {
			cur = cur.Drop(c)
			if cur == nil {
				t.Fatalf("%v: drop %d failed", tc.seq, c)
			}
			if i < len(tc.seq)-1 && cur.Won() {
				t.Fatalf("%v: premature win after move %d", tc.seq, i)
			}
		}
		if !cur.Won() {
			t.Fatalf("%v: the last mover should have won:\n%s", tc.seq, cur)
		}
		if len(cur.Moves()) != 0 {
			t.Errorf("%v: won game should be terminal", tc.seq)
		}
		if cur.Evaluate() != -engine.WinScore() {
			t.Errorf("%v: loser-to-move eval %d", tc.seq, cur.Evaluate())
		}
		// Never past a win: Drop refuses every column, so no position the
		// type can build holds a line that is not through its last disc.
		for c := 0; c < tc.w; c++ {
			if cur.Drop(c) != nil {
				t.Errorf("%v: drop in column %d accepted after the win", tc.seq, c)
			}
		}
	}
}

func TestConnect4VerticalDiagonalWins(t *testing.T) {
	// Vertical: X drops column 0 three times (3-in-a-row board).
	p := NewConnect4(4, 4, 3)
	cur := p
	for _, c := range []int{0, 1, 0, 1, 0} {
		cur = cur.Drop(c)
	}
	if !cur.Won() {
		t.Error("vertical win missed")
	}
	// Diagonal: build a staircase.
	cur = NewConnect4(4, 4, 3)
	for _, c := range []int{0, 1, 1, 2, 3, 2, 2} {
		cur = cur.Drop(c)
		if cur == nil {
			t.Fatal("drop failed")
		}
	}
	if !cur.Won() {
		t.Errorf("diagonal win missed:\n%s", cur)
	}
}

func TestConnect4DropBounds(t *testing.T) {
	p := NewConnect4(3, 2, 3)
	if p.Drop(-1) != nil || p.Drop(3) != nil {
		t.Error("out-of-range drop accepted")
	}
	cur := p.Drop(0).Drop(0)
	if cur.Drop(0) != nil {
		t.Error("overfull column accepted")
	}
	if cur.Full() {
		t.Error("board not full yet")
	}
}

func TestConnect4MovesCenterFirst(t *testing.T) {
	p := StandardConnect4()
	moves := p.Moves()
	if len(moves) != 7 {
		t.Fatalf("%d root moves", len(moves))
	}
	first := moves[0].(*Connect4)
	if first.LastCol != 3 {
		t.Errorf("first move column %d, want center 3", first.LastCol)
	}
}

func TestConnect4EngineFindsImmediateWin(t *testing.T) {
	// X has three in a row on the bottom; X to move wins by dropping at
	// column 3.
	p := NewConnect4(7, 6, 4)
	cur := p
	for _, c := range []int{0, 6, 1, 6, 2, 5} {
		cur = cur.Drop(c)
	}
	r, err := engine.SearchOpt(context.Background(), cur, 4, engine.SearchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != engine.WinScore() {
		t.Errorf("value %d, want win", r.Value)
	}
	best := cur.Moves()[r.Best].(*Connect4)
	if best.LastCol != 3 {
		t.Errorf("winning move column %d, want 3", best.LastCol)
	}
}

func TestConnect4ParallelAgreesWithSequential(t *testing.T) {
	p := NewConnect4(5, 4, 3)
	for depth := 1; depth <= 6; depth++ {
		seq := engine.Search(p, depth)
		par, err := engine.SearchOpt(context.Background(), p, depth, engine.SearchOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if seq.Value != par.Value {
			t.Errorf("depth %d: parallel %d != sequential %d", depth, par.Value, seq.Value)
		}
	}
}

func TestConnect4Panics(t *testing.T) {
	for _, size := range [][3]int{
		{0, 5, 4},
		{8, 8, 4},  // (h+1)*w = 72 cells: more than one 64-bit word
		{1, 64, 2}, // 65 cells in one column
		{4, 4, 65}, // a line longer than any word
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewConnect4%v: expected panic", size)
				}
			}()
			NewConnect4(size[0], size[1], size[2])
		}()
	}
	NewConnect4(8, 7, 4) // (7+1)*8 = 64 cells: the largest that fits
}

// ---------------------------------------------------------------------------
// Nim

func TestNimMatchesXorRule(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		heaps := make([]int, 1+rng.Intn(3))
		for i := range heaps {
			heaps[i] = rng.Intn(4)
		}
		p := NewNim(heaps...)
		depth := p.TotalObjects()
		if depth == 0 {
			continue
		}
		r := engine.Search(p, depth)
		wantWin := p.XorValue() != 0
		gotWin := r.Value > 0
		if wantWin != gotWin {
			t.Errorf("nim%v: engine says win=%v, xor rule says %v (value %d)",
				heaps, gotWin, wantWin, r.Value)
		}
	}
}

func TestNimTerminal(t *testing.T) {
	p := NewNim(0, 0)
	if len(p.Moves()) != 0 {
		t.Error("empty nim should be terminal")
	}
	if p.Evaluate() != -engine.WinScore() {
		t.Error("side to move at empty heaps has lost")
	}
	if NewNim(1, 2, 3).String() != "nim[1 2 3]" {
		t.Errorf("String: %s", NewNim(1, 2, 3))
	}
}

func TestNimPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewNim(1, -2)
}

// ---------------------------------------------------------------------------
// Horn prover

func TestHornBasicDeduction(t *testing.T) {
	kb, err := NewKB([]Rule{
		{Head: "mortal", Body: []string{"man"}},
		{Head: "man", Body: []string{"socrates"}},
		{Head: "socrates"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !kb.Provable("mortal") {
		t.Error("mortal should be provable")
	}
	if kb.Provable("god") {
		t.Error("god should not be provable")
	}
	got, err := kb.ProvableByTree("mortal")
	if err != nil || !got {
		t.Errorf("tree proof failed: %v %v", got, err)
	}
	got, err = kb.ProvableByTree("god")
	if err != nil || got {
		t.Errorf("tree disproof failed: %v %v", got, err)
	}
}

func TestHornConjunctionAndDisjunction(t *testing.T) {
	kb, err := NewKB([]Rule{
		{Head: "g", Body: []string{"a", "b"}},
		{Head: "g", Body: []string{"c"}},
		{Head: "a"},
		// b missing: first rule fails
		{Head: "c", Body: []string{"a"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !kb.Provable("g") {
		t.Error("g provable via second rule")
	}
	byTree, err := kb.ProvableByTree("g")
	if err != nil || !byTree {
		t.Errorf("tree: %v %v", byTree, err)
	}
}

func TestHornCycleRejected(t *testing.T) {
	_, err := NewKB([]Rule{
		{Head: "a", Body: []string{"b"}},
		{Head: "b", Body: []string{"a"}},
	})
	if err == nil {
		t.Error("cyclic KB accepted")
	}
	if _, err := NewKB([]Rule{{Head: "x", Body: []string{"x"}}}); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := NewKB([]Rule{{Head: ""}}); err == nil {
		t.Error("empty head accepted")
	}
}

// Property: for random layered KBs, the recursive prover and the NOR-tree
// evaluation agree, and so do all the paper's SOLVE algorithms.
func TestHornTreeAgreesWithProverAndSolvers(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		kb, goal := LayeredKB(3, 3, 2, 2, 0.5, seed)
		want := kb.Provable(goal)
		tr, err := kb.ProofTree(goal, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := tr.Evaluate() == 0; got != want {
			t.Fatalf("seed %d: tree %v, prover %v", seed, got, want)
		}
		for w := 0; w <= 2; w++ {
			m, err := core.ParallelSolve(tr, w, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got := m.Value == 0; got != want {
				t.Fatalf("seed %d width %d: SOLVE %v, prover %v", seed, w, got, want)
			}
		}
	}
}

func TestHornNodeLimit(t *testing.T) {
	kb, goal := LayeredKB(6, 2, 3, 3, 0.5, 1)
	if _, err := kb.ProofTree(goal, 10); err == nil {
		t.Error("node limit not enforced")
	}
}

func TestHornAtoms(t *testing.T) {
	kb, err := NewKB([]Rule{{Head: "b", Body: []string{"a"}}, {Head: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	atoms := kb.Atoms()
	if len(atoms) != 2 || atoms[0] != "a" || atoms[1] != "b" {
		t.Errorf("atoms: %v", atoms)
	}
}

func TestLayeredKBPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	LayeredKB(0, 1, 1, 1, 0.5, 1)
}

func TestTranspositionTableHelpsOnConnect4(t *testing.T) {
	pos := NewConnect4(6, 5, 4)
	const depth = 7
	plain := engine.Search(pos, depth)
	tab := engine.NewTable(1 << 16)
	first, err := engine.SearchOpt(context.Background(), pos, depth, engine.SearchOptions{Table: tab, Workers: 1})
	if err != nil || first.Value != plain.Value {
		t.Fatalf("tt value %d != plain %d (err %v)", first.Value, plain.Value, err)
	}
	// Connect-4 transposes heavily (move-order permutations), so even the
	// first table-backed search must beat the plain one.
	if first.Nodes >= plain.Nodes {
		t.Errorf("tt search visited %d nodes, plain %d", first.Nodes, plain.Nodes)
	}
	// A repeated search on the warm table is nearly free.
	second, err := engine.SearchOpt(context.Background(), pos, depth, engine.SearchOptions{Table: tab, Workers: 1})
	if err != nil || second.Value != plain.Value {
		t.Fatalf("warm tt value %d (err %v)", second.Value, err)
	}
	if second.Nodes > first.Nodes/10 {
		t.Errorf("warm table search visited %d nodes (cold %d)", second.Nodes, first.Nodes)
	}
}

func TestIterativeDeepeningOnTTT(t *testing.T) {
	r, pv, err := engine.SearchIterative(context.Background(), TTT{}, 9, engine.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 0 {
		t.Errorf("tic-tac-toe iterative value %d, want draw", r.Value)
	}
	if len(pv) == 0 {
		t.Error("no principal variation")
	}
	// Replay the PV: it must be a legal line of play.
	cur := engine.Position(TTT{})
	for i, mv := range pv {
		moves := cur.Moves()
		if mv < 0 || mv >= len(moves) {
			t.Fatalf("pv[%d]=%d illegal", i, mv)
		}
		cur = moves[mv]
	}
}

func TestHashesDistinguishPositions(t *testing.T) {
	a, _ := ParseTTT("X........")
	b, _ := ParseTTT(".X.......")
	if a.Hash() == b.Hash() {
		t.Error("distinct TTT positions share a hash")
	}
	if NewNim(1, 12).Hash() == NewNim(11, 2).Hash() {
		t.Error("nim (1,12) and (11,2) share a hash")
	}
	c1 := StandardConnect4().Drop(0)
	c2 := StandardConnect4().Drop(1)
	if c1.Hash() == c2.Hash() {
		t.Error("distinct connect4 positions share a hash")
	}
}
