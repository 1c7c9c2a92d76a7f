package games

import (
	"context"
	"testing"

	"gametree/internal/engine"
)

// Known small-board outcomes (normal play, Vertical moves first):
// see Berlekamp/Conway/Guy "Winning Ways". On m x n boards:
//
//	1x1: no moves at all -> Vertical (to move) loses.
//	2x1: Vertical wins (one vertical move, then Horizontal is stuck).
//	1x2: Vertical has no move -> loses.
//	2x2: Vertical wins.
//	3x3: first player (Vertical) wins.
func TestDomineeringKnownOutcomes(t *testing.T) {
	cases := []struct {
		w, h        int
		verticalWin bool
	}{
		{1, 1, false},
		{1, 2, true},  // one vertical placement available (w=1,h=2)
		{2, 1, false}, // only a horizontal slot; Vertical cannot move
		{2, 2, true},
		{3, 3, true},
		{2, 3, true}, // 2 wide, 3 tall: Vertical wins
	}
	for _, c := range cases {
		p := NewDomineering(c.w, c.h)
		depth := c.w*c.h/2 + 1
		r := engine.Search(p, depth)
		got := r.Value > 0
		if got != c.verticalWin {
			t.Errorf("%dx%d: vertical wins=%v, want %v (value %d)", c.w, c.h, got, c.verticalWin, r.Value)
		}
	}
}

func TestDomineeringMoveGeneration(t *testing.T) {
	p := NewDomineering(3, 2)
	// Vertical: each of the 3 columns has one vertical slot.
	if got := len(p.Moves()); got != 3 {
		t.Errorf("vertical moves = %d, want 3", got)
	}
	q := p.Moves()[0].(*Domineering)
	if q.VerticalToMove {
		t.Error("turn did not flip")
	}
	// Horizontal on the remaining board: 2 rows x 2 slots = 4 minus those
	// blocked by the placed domino in column 0.
	if got := len(q.Moves()); got != 2 {
		t.Errorf("horizontal moves after vertical at col 0 = %d, want 2\n%s", got, q)
	}
}

func TestDomineeringTerminalAndString(t *testing.T) {
	p := NewDomineering(1, 1)
	if len(p.Moves()) != 0 {
		t.Error("1x1 has no moves")
	}
	if p.Evaluate() != -engine.WinScore() {
		t.Error("stuck player has lost")
	}
	if p.String() != "." {
		t.Errorf("String: %q", p.String())
	}
	full := NewDomineering(2, 2).Moves()[0].(*Domineering)
	if got := full.String(); got != "#.\n#." {
		t.Errorf("String:\n%s", got)
	}
}

func TestDomineeringParallelAndTT(t *testing.T) {
	p := NewDomineering(4, 3)
	depth := p.MaxMoves() + 1
	seq := engine.Search(p, depth)
	par, err := engine.SearchOpt(context.Background(), p, depth, engine.SearchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if par.Value != seq.Value {
		t.Errorf("parallel %d != sequential %d", par.Value, seq.Value)
	}
	tt, err := engine.SearchOpt(context.Background(), p, depth, engine.SearchOptions{Table: engine.NewTable(1 << 16), Workers: 1})
	if err != nil || tt.Value != seq.Value {
		t.Errorf("tt %d != sequential %d (err %v)", tt.Value, seq.Value, err)
	}
	if tt.Nodes >= seq.Nodes {
		t.Errorf("domineering transposes, tt should help: %d vs %d nodes", tt.Nodes, seq.Nodes)
	}
}

func TestDomineeringPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewDomineering(0, 3)
}
