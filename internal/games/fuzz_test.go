package games

import (
	"fmt"
	"slices"
	"testing"

	"gametree/internal/engine"
)

// FuzzParseTTT: the board parser must never panic and must only accept
// 9-cell boards with plausible piece counts.
func FuzzParseTTT(f *testing.F) {
	for _, seed := range []string{"XOX.O..X.", ".........", "XXXXXXXXX", "", "XO"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseTTT(s)
		if err != nil {
			return
		}
		var x, o int
		for _, c := range p.Cells {
			switch c {
			case 1:
				x++
			case 2:
				o++
			}
		}
		if o > x || x > o+1 {
			t.Fatalf("accepted impossible counts X=%d O=%d from %q", x, o, s)
		}
		_ = p.Moves()
		_ = p.Evaluate()
	})
}

// impartialSeeds are the seed positions of FuzzImpartialMoves, shared
// with its allocation check: each byte is one part, read modulo 21.
var impartialSeeds = [][]byte{
	{}, {0}, {1}, {2}, {1, 1}, {3, 3, 3}, {1, 2, 3}, {0, 5, 0, 5},
	{20, 19, 18, 17, 16}, {7, 7, 1, 1, 0}, {255, 21, 42, 9, 4},
}

// impartialParts reads the first five bytes of raw as parts of size
// 0..20 (zero parts included).
func impartialParts(raw []byte) []int {
	var parts []int
	for i := 0; i < len(raw) && i < 5; i++ {
		parts = append(parts, int(raw[i])%21)
	}
	return parts
}

// impartialGame is Nim or Kayles seen through its parts (heaps or rows)
// and its closed-form Sprague–Grundy value.
type impartialGame struct {
	kayles bool
	build  func(parts ...int) engine.Position
	parts  func(engine.Position) []int
	value  func(engine.Position) int
}

var nimGame = impartialGame{
	build: func(parts ...int) engine.Position { return NewNim(parts...) },
	parts: func(p engine.Position) []int { return p.(Nim).Heaps },
	value: func(p engine.Position) int { return p.(Nim).XorValue() },
}

var kaylesGame = impartialGame{
	kayles: true,
	build:  func(parts ...int) engine.Position { return NewKayles(parts...) },
	parts:  func(p engine.Position) []int { return p.(Kayles).Rows },
	value:  func(p engine.Position) int { return p.(Kayles).GrundyValue() },
}

// naiveSuccessors lists, by canonical String, every position one move
// away, generated without deduplication: every part, every removal,
// every Kayles offset.
func (g impartialGame) naiveSuccessors(parts []int) map[string]bool {
	out := map[string]bool{}
	for i, v := range parts {
		rest := append(append([]int(nil), parts[:i]...), parts[i+1:]...)
		if !g.kayles {
			for take := 1; take <= v; take++ {
				out[fmt.Sprint(g.build(append(rest, v-take)...))] = true
			}
			continue
		}
		for take := 1; take <= 2 && take <= v; take++ {
			for o := 0; o+take <= v; o++ {
				out[fmt.Sprint(g.build(append(rest, o, v-o-take)...))] = true
			}
		}
	}
	return out
}

func hashOf(p engine.Position) uint64 { return p.(engine.Hasher).Hash() }

// FuzzImpartialMoves checks the canonical form of Nim and Kayles on
// positions of up to five parts of size up to 20: Moves yields exactly
// one successor per distinct position reachable in one move (against an
// undeduplicated generator), each in canonical form, no two sharing a
// Hash; the Sprague–Grundy value is the mex of the successors' values,
// so no move that decides the game was dropped; and Hash ignores part
// order and zero parts.
func FuzzImpartialMoves(f *testing.F) {
	for _, seed := range impartialSeeds {
		f.Add(false, seed)
		f.Add(true, seed)
	}
	f.Fuzz(func(t *testing.T, kayles bool, raw []byte) {
		g := nimGame
		if kayles {
			g = kaylesGame
		}
		parts := impartialParts(raw)
		pos := g.build(parts...)

		// Part order and zero parts do not reach the key.
		shuffled := append([]int{0}, parts...)
		slices.Reverse(shuffled)
		shuffled = append(shuffled, 0)
		if h, got := hashOf(pos), hashOf(g.build(shuffled...)); got != h {
			t.Fatalf("%v: hash %x, permuted with zeros %v: %x", pos, h, shuffled, got)
		}

		succ := pos.Moves()
		want := g.naiveSuccessors(parts)
		if len(succ) != len(want) {
			t.Fatalf("%v: %d successors, %d distinct positions one move away", pos, len(succ), len(want))
		}
		hashes := map[uint64]engine.Position{}
		reach := map[int]bool{}
		for _, c := range succ {
			if cp := g.parts(c); !slices.IsSorted(cp) || slices.Contains(cp, 0) {
				t.Fatalf("%v: successor %v not canonical", pos, cp)
			}
			if !want[fmt.Sprint(c)] {
				t.Fatalf("%v: successor %v is not one move away", pos, c)
			}
			ch := hashOf(c)
			if prev, dup := hashes[ch]; dup {
				t.Fatalf("%v: successors %v and %v share hash %x", pos, prev, c, ch)
			}
			hashes[ch] = c
			reach[g.value(c)] = true
		}
		mex := 0
		for reach[mex] {
			mex++
		}
		if v := g.value(pos); v != mex {
			t.Fatalf("%v: value %d, mex over successors %d", pos, v, mex)
		}
	})
}

// TestImpartialHashNoAllocs: hashing a Nim or Kayles position folds its
// canonical parts in place, with no copy and no sort.
func TestImpartialHashNoAllocs(t *testing.T) {
	var sink uint64
	for _, seed := range impartialSeeds {
		for _, g := range []impartialGame{nimGame, kaylesGame} {
			p := g.build(impartialParts(seed)...).(engine.Hasher)
			if n := testing.AllocsPerRun(100, func() { sink ^= p.Hash() }); n != 0 {
				t.Errorf("%v: Hash makes %.0f allocations", p, n)
			}
		}
	}
	_ = sink
}
