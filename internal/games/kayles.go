package games

import (
	"fmt"

	"gametree/internal/engine"
)

// Kayles is the classic octal game 0.77: a row of pins; a move knocks
// down one pin or two adjacent pins, possibly splitting a row into two
// independent rows; the player who cannot move loses. Its Sprague-Grundy
// values are famously eventually periodic with period 12, giving an exact
// closed-form oracle for the engine on yet another move structure
// (splitting positions into independent components).
type Kayles struct {
	// Rows holds the lengths of the remaining independent rows, nonzero
	// and in ascending order. NewKayles and Moves build positions in this
	// canonical form, so that row order never splits one position into
	// several table keys.
	Rows []int
}

// NewKayles returns a position with the given row lengths, in canonical
// form. Negative lengths panic.
func NewKayles(rows ...int) Kayles {
	return Kayles{Rows: canonicalParts(rows, "games: negative Kayles row")}
}

// kaylesGrundyTable holds the Grundy values for rows 0..83; from 71 on the
// sequence is purely periodic with period 12:
// 4 1 2 8 1 4 7 2 1 8 2 7.
var kaylesGrundyTable = []int{
	0, 1, 2, 3, 1, 4, 3, 2, 1, 4, 2, 6,
	4, 1, 2, 7, 1, 4, 3, 2, 1, 4, 6, 7,
	4, 1, 2, 8, 5, 4, 7, 2, 1, 8, 6, 7,
	4, 1, 2, 3, 1, 4, 7, 2, 1, 8, 2, 7,
	4, 1, 2, 8, 1, 4, 7, 2, 1, 4, 2, 7,
	4, 1, 2, 8, 1, 4, 7, 2, 1, 8, 6, 7,
	4, 1, 2, 8, 1, 4, 7, 2, 1, 8, 2, 7,
}

// KaylesGrundy returns the Grundy value of a single row of length n.
func KaylesGrundy(n int) int {
	if n < 0 {
		panic("games: negative row")
	}
	if n < len(kaylesGrundyTable) {
		return kaylesGrundyTable[n]
	}
	// Purely periodic with period 12 beyond the table.
	return kaylesGrundyTable[71+(n-71)%12]
}

// GrundyValue returns the nim-sum of the row Grundy values; the side to
// move wins under perfect play iff it is non-zero.
func (p Kayles) GrundyValue() int {
	g := 0
	for _, r := range p.Rows {
		g ^= KaylesGrundy(r)
	}
	return g
}

// Moves returns one successor per distinct position reachable by
// removing one pin or two adjacent pins from one row, splitting it into
// the two remaining parts. Removing take pins at offset o leaves parts o
// and r-o-take, the mirror of offset r-o-take, so only o <= r-o-take is
// generated; a row equal to the one before it would only repeat that
// row's successors, so it is skipped. Every successor is in canonical
// form.
func (p Kayles) Moves() []engine.Position {
	out := make([]engine.Position, 0, p.TotalPins())
	for i, r := range p.Rows {
		if i > 0 && r == p.Rows[i-1] {
			continue
		}
		for take := 1; take <= 2 && take <= r; take++ {
			for o := 0; o <= r-o-take; o++ {
				out = append(out, Kayles{Rows: withPart(p.Rows, i, o, r-o-take)})
			}
		}
	}
	return out
}

// Evaluate: the side to move with no pins left has lost.
func (p Kayles) Evaluate() int32 {
	for _, r := range p.Rows {
		if r > 0 {
			return 0
		}
	}
	return -engine.WinScore()
}

// TotalPins bounds the remaining game length.
func (p Kayles) TotalPins() int {
	n := 0
	for _, r := range p.Rows {
		n += r
	}
	return n
}

// Hash returns a position hash over the canonical row lengths, so every
// row order of one position shares a key. It neither copies nor
// allocates.
func (p Kayles) Hash() uint64 {
	h := uint64(1469598103934665603)
	for _, r := range p.Rows {
		h ^= uint64(r)
		h *= 1099511628211
		h ^= 0xaa
		h *= 1099511628211
	}
	return h
}

func (p Kayles) String() string { return fmt.Sprintf("kayles%v", p.Rows) }

var _ engine.Position = Kayles{}
var _ engine.Hasher = Kayles{}
