package serve

import (
	"fmt"
	"testing"

	"gametree/internal/engine"
)

// hashOf keys a position for identity comparison: Hash when the game
// supports it, else the String form.
func hashOf(p engine.Position) string {
	if h, ok := p.(engine.Hasher); ok {
		return fmt.Sprintf("h%x", h.Hash())
	}
	return fmt.Sprintf("s%v", p)
}

// TestExpandersMatchMoves is the contract the shard tier's Best-index
// fidelity rests on: for every registered game, expanding a canonical
// position yields exactly the positions of Moves(), in Moves() order.
func TestExpandersMatchMoves(t *testing.T) {
	cases := []struct{ game, pos string }{
		{"ttt", ""},             // empty board
		{"ttt", "XOX.O..X."},    // midgame
		{"ttt", "XXXOO...."},    // won: terminal
		{"ttt", "XOXXOOOXX"},    // full board: terminal
		{"connect4", ""},        // empty board, center-first ordering
		{"connect4", "333"},     // stacked center
		{"connect4", "3344"},    // midgame
		{"connect4", "3434343"}, // vertical win for player 1: terminal
		{"connect4", "0101010"}, // the same on the edge column
		{"ttt", "xox .o. .x."},  // non-canonical spelling of a midgame board
		{"random", "42"},
		{"random", "7:3"},
		{"random", "18446744073709551615:16"}, // max seed, max branch
	}
	for _, tc := range cases {
		t.Run(tc.game+"/"+tc.pos, func(t *testing.T) {
			pos, key, err := ParsePosition(tc.game, tc.pos)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			canon := keyPosition(key)
			children, err := Expand(tc.game, canon)
			if err != nil {
				t.Fatalf("expand: %v", err)
			}
			moves := pos.Moves()
			if len(children) != len(moves) {
				t.Fatalf("expander gives %d children, Moves gives %d", len(children), len(moves))
			}
			for i, c := range children {
				got, childKey, err := ParsePosition(tc.game, c)
				if err != nil {
					t.Fatalf("child %d %q does not parse: %v", i, c, err)
				}
				if childKey != tc.game+"|"+c {
					t.Errorf("child %d %q is not canonical: key %q", i, c, childKey)
				}
				if hashOf(got) != hashOf(moves[i]) {
					t.Errorf("child %d: expander gives %v, Moves gives %v", i, got, moves[i])
				}
			}
		})
	}
}

func TestExpandErrors(t *testing.T) {
	if _, err := Expand("nosuch", ""); err == nil {
		t.Error("unknown game expanded")
	}
	if _, err := Expand("ttt", "XX"); err == nil {
		t.Error("short ttt board expanded")
	}
	if _, err := Expand("connect4", "9"); err == nil {
		t.Error("out-of-range connect4 column expanded")
	}
	if _, err := Expand("random", "notanumber"); err == nil {
		t.Error("bad random seed expanded")
	}
	if _, err := Expand("connect4", "01010102"); err == nil {
		t.Error("connect4 position past a win expanded")
	}
	if _, err := Expand("nim", "1,2"); err == nil {
		t.Error("game without an expander expanded")
	}
}

// FuzzParsePosition throws arbitrary position strings at every registered
// game: parsing never panics, the canonical form is a fixed point of the
// parser, and every child an expander names is itself a canonical
// position — one per move, so the shard tier's fold indexes line up.
func FuzzParsePosition(f *testing.F) {
	fuzzGames := []string{"ttt", "connect4", "random", "nim", "kayles"}
	for i, seeds := range [][]string{
		{"", "XOX.O..X.", "xox .o. .x.", "XXXOO....", "XX"},
		{"", "333", "3434343", "01010102", "7", "3333333"},
		{"42", "7:3", "18446744073709551615:16", "042:7", "nan"},
		{"3,5,7", "1 2 3", "0", "64,64", "x,2", ""},
		{"5,6", "1", "3 2 1", "1,-2", "9999"},
	} {
		for _, seed := range seeds {
			f.Add(uint8(i), seed)
		}
	}
	f.Fuzz(func(t *testing.T, g uint8, position string) {
		game := fuzzGames[int(g)%len(fuzzGames)]
		pos, key, err := ParsePosition(game, position)
		if err != nil {
			return
		}
		canon := keyPosition(key)
		if _, again, err := ParsePosition(game, canon); err != nil || again != key {
			t.Fatalf("%s %q: canonical form %q re-parses to %q, %v", game, position, canon, again, err)
		}
		children, err := Expand(game, canon)
		if game == "nim" || game == "kayles" {
			return // served, not sharded: no expander
		}
		if err != nil {
			t.Fatalf("%s %q: expand: %v", game, canon, err)
		}
		if moves := pos.Moves(); len(children) != len(moves) {
			t.Fatalf("%s %q: %d children for %d moves", game, canon, len(children), len(moves))
		}
		for _, c := range children {
			if _, childKey, err := ParsePosition(game, c); err != nil || childKey != game+"|"+c {
				t.Fatalf("%s %q: child %q parses to %q, %v", game, canon, c, childKey, err)
			}
		}
	})
}
