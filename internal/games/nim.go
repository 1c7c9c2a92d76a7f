package games

import (
	"fmt"

	"gametree/internal/engine"
)

// Nim is a normal-play Nim position: the player who takes the last object
// wins (a player facing all-empty heaps has lost). Its game value is known
// in closed form (the Sprague–Grundy xor rule), which makes it the perfect
// correctness oracle for the search engine.
type Nim struct {
	// Heaps holds the nonzero heap sizes in ascending order. NewNim and
	// Moves build positions in this canonical form, so that heap order
	// never splits one position into several table keys.
	Heaps []int
}

// NewNim returns a Nim position with the given heaps, in canonical form.
// Negative heap sizes panic.
func NewNim(heaps ...int) Nim {
	return Nim{Heaps: canonicalParts(heaps, "games: negative Nim heap")}
}

// XorValue returns the nim-sum. The side to move wins under perfect play
// iff it is non-zero.
func (p Nim) XorValue() int {
	x := 0
	for _, h := range p.Heaps {
		x ^= h
	}
	return x
}

// Moves returns one successor per distinct position reachable by removing
// 1..h objects from a single heap: a heap equal to the one before it
// would only repeat that heap's successors, so it is skipped. Every
// successor is in canonical form.
func (p Nim) Moves() []engine.Position {
	out := make([]engine.Position, 0, p.TotalObjects())
	for i, h := range p.Heaps {
		if i > 0 && h == p.Heaps[i-1] {
			continue
		}
		for take := 1; take <= h; take++ {
			out = append(out, Nim{Heaps: withPart(p.Heaps, i, h-take)})
		}
	}
	return out
}

// Evaluate returns the terminal score: all heaps empty means the side to
// move lost (the opponent took the last object).
func (p Nim) Evaluate() int32 {
	for _, h := range p.Heaps {
		if h > 0 {
			return 0 // non-terminal; only reached at a depth horizon
		}
	}
	return -engine.WinScore()
}

// TotalObjects returns the number of objects left (an upper bound on the
// remaining game length, hence a sufficient search depth).
func (p Nim) TotalObjects() int {
	n := 0
	for _, h := range p.Heaps {
		n += h
	}
	return n
}

func (p Nim) String() string { return fmt.Sprintf("nim%v", p.Heaps) }

var _ engine.Position = Nim{}

// Hash returns a position hash, enabling the engine's transposition
// table: FNV-1a over the canonical heap sizes, so every heap order of one
// position shares a key. It neither copies nor allocates.
func (p Nim) Hash() uint64 {
	h := uint64(1469598103934665603)
	for _, heap := range p.Heaps {
		h ^= uint64(heap)
		h *= 1099511628211
		h ^= 0xff // separator so (1,12) and (2,11) differ
		h *= 1099511628211
	}
	return h
}
