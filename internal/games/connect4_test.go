package games

import (
	"math/rand"
	"slices"
	"testing"
)

// c4Sizes are the boards the bitboard is diffed against the oracle on:
// the standard one, the ones the tests and examples use, and a 2-row board
// where every column fills in two moves.
var c4Sizes = [][3]int{{7, 6, 4}, {6, 5, 4}, {5, 4, 3}, {4, 4, 3}, {3, 2, 3}}

// diffConnect4 fails unless the bitboard position p means what the
// []int8 oracle position q means: the same win, score, fullness, picture,
// mover and successor columns in the same order.
func diffConnect4(t *testing.T, where string, q *oracleConnect4, p *Connect4) {
	t.Helper()
	if p.Won() != q.Won() || p.Full() != q.Full() || p.Mover != q.Mover || p.LastCol != q.LastCol {
		t.Fatalf("%s: won %v full %v mover %d last %d, oracle won %v full %v mover %d last %d\n%s",
			where, p.Won(), p.Full(), p.Mover, p.LastCol, q.Won(), q.Full(), q.Mover, q.LastCol, q)
	}
	if p.Evaluate() != q.Evaluate() {
		t.Fatalf("%s: Evaluate %d, oracle %d\n%s", where, p.Evaluate(), q.Evaluate(), q)
	}
	if p.String() != q.String() {
		t.Fatalf("%s: String\n%s\noracle\n%s", where, p, q)
	}
	var got, want []int8
	for _, m := range p.Moves() {
		got = append(got, m.(*Connect4).LastCol)
	}
	for _, c := range p.Children(nil) {
		if c.LastCol != got[len(want)] {
			t.Fatalf("%s: Children and Moves disagree on the order", where)
		}
		want = append(want, c.LastCol)
	}
	want = want[:0]
	for _, m := range q.Moves() {
		want = append(want, m.(*oracleConnect4).LastCol)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: move columns %v, oracle %v\n%s", where, got, want, q)
	}
}

// TestConnect4MatchesOracle plays random legal games to their end on every
// board size and diffs the bitboard against the oracle at every ply.
func TestConnect4MatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	games := 0
	for _, sz := range c4Sizes {
		for g := 0; g < 300; g++ {
			q, p := newOracleConnect4(sz[0], sz[1], sz[2]), NewConnect4(sz[0], sz[1], sz[2])
			for ply := 0; ; ply++ {
				diffConnect4(t, "", q, p)
				moves := q.Moves()
				if len(moves) == 0 {
					break
				}
				i := rng.Intn(len(moves))
				q, p = moves[i].(*oracleConnect4), p.Moves()[i].(*Connect4)
			}
			games++
		}
	}
	if games < 1000 {
		t.Fatalf("only %d games", games)
	}
}

// FuzzConnect4 drops arbitrary columns, in range or not, on a board chosen
// by the first argument, and diffs the bitboard against the oracle after
// every drop. The oracle plays on past a win; the bitboard must refuse to.
func FuzzConnect4(f *testing.F) {
	for _, seed := range []string{"", "3333333", "0101010", "3434343", "01010102", "0123456789", "\x00\xff\x07"} {
		f.Add(uint8(0), seed)
		f.Add(uint8(4), seed)
	}
	f.Fuzz(func(t *testing.T, size uint8, moves string) {
		sz := c4Sizes[int(size)%len(c4Sizes)]
		q, p := newOracleConnect4(sz[0], sz[1], sz[2]), NewConnect4(sz[0], sz[1], sz[2])
		for i := 0; i < len(moves); i++ {
			c := int(moves[i])%(sz[0]+2) - 1 // -1 and W are out of range
			won := q.Won()
			qn, pn := q.Drop(c), p.Drop(c)
			if won {
				if pn != nil {
					t.Fatalf("drop %d: column %d accepted after a win", i, c)
				}
				return
			}
			if (qn == nil) != (pn == nil) {
				t.Fatalf("drop %d: column %d: bitboard accepted %v, oracle %v", i, c, pn != nil, qn != nil)
			}
			if qn == nil {
				continue
			}
			q, p = qn, pn
			diffConnect4(t, "after "+moves[:i+1], q, p)
		}
	})
}

// TestConnect4FastPathMatchesFold plays seeded random games on the two
// four-in-a-row boards and, at every ply, diffs the Need = 4 pass of Won
// and Evaluate against the general fold and squares code called
// directly, so the general path stays covered on four-in-a-row boards
// too. It also checks that Children into a buffer with room allocates
// nothing.
func TestConnect4FastPathMatchesFold(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	plies := 0
	for _, sz := range [][3]int{{7, 6, 4}, {6, 5, 4}} {
		for g := 0; g < 300; g++ {
			p := *NewConnect4(sz[0], sz[1], sz[2])
			var kids []Connect4
			for {
				if won := p.wonFold(p.lastDiscs()); p.Won() != won || p.Evaluate() != p.evaluateFold() {
					t.Fatalf("%v: Won %v Evaluate %d, general path Won %v Evaluate %d\n%s",
						sz, p.Won(), p.Evaluate(), won, p.evaluateFold(), p)
				}
				plies++
				if kids = p.Children(kids[:0]); len(kids) == 0 {
					break
				}
				p = kids[rng.Intn(len(kids))]
			}
		}
	}
	if plies < 10000 {
		t.Fatalf("only %d plies", plies)
	}

	p := *StandardConnect4()
	buf := make([]Connect4, 0, p.W)
	if n := testing.AllocsPerRun(100, func() { buf = p.Children(buf[:0]) }); n != 0 {
		t.Fatalf("Children allocated %v times per call into a sized buffer", n)
	}
}
