package games

// The []int8 Connect-4 this package shipped before the bitboard, kept
// verbatim but for its names as the oracle the bitboard is diffed against
// (TestConnect4MatchesOracle, FuzzConnect4).

import (
	"fmt"
	"strings"

	"gametree/internal/engine"
)

// oracleConnect4 is a connect-four position on a parametric board (standard play
// is 7 columns by 6 rows, four in a row to win). Columns fill bottom-up.
type oracleConnect4 struct {
	W, H    int
	Need    int // in-a-row needed to win (4 in the standard game)
	Grid    []int8
	Heights []int8
	Mover   int8 // 1 or 2
	LastCol int8 // column of the last move, -1 initially
}

// newOracleConnect4 returns the empty board. Zero or negative dimensions panic.
func newOracleConnect4(w, h, need int) *oracleConnect4 {
	if w < 1 || h < 1 || need < 2 {
		panic("games: NewConnect4 requires w,h >= 1 and need >= 2")
	}
	return &oracleConnect4{
		W: w, H: h, Need: need,
		Grid:    make([]int8, w*h),
		Heights: make([]int8, w),
		Mover:   1,
		LastCol: -1,
	}
}

func (p *oracleConnect4) at(c, r int) int8 {
	if c < 0 || c >= p.W || r < 0 || r >= p.H {
		return -1
	}
	return p.Grid[c*p.H+r]
}

// Drop returns the position after the mover drops in column c, or nil if
// the column is full or out of range.
func (p *oracleConnect4) Drop(c int) *oracleConnect4 {
	if c < 0 || c >= p.W || int(p.Heights[c]) >= p.H {
		return nil
	}
	q := &oracleConnect4{
		W: p.W, H: p.H, Need: p.Need,
		Grid:    append([]int8(nil), p.Grid...),
		Heights: append([]int8(nil), p.Heights...),
		Mover:   3 - p.Mover,
		LastCol: int8(c),
	}
	q.Grid[c*p.H+int(p.Heights[c])] = p.Mover
	q.Heights[c]++
	return q
}

// Won reports whether the player who made the last move completed a
// line through the last-dropped disc: the game is over and the position
// has no successors.
func (p *oracleConnect4) Won() bool {
	if p.LastCol < 0 {
		return false
	}
	c := int(p.LastCol)
	r := int(p.Heights[c]) - 1
	who := p.at(c, r)
	dirs := [4][2]int{{1, 0}, {0, 1}, {1, 1}, {1, -1}}
	for _, d := range dirs {
		run := 1
		for k := 1; p.at(c+k*d[0], r+k*d[1]) == who; k++ {
			run++
		}
		for k := 1; p.at(c-k*d[0], r-k*d[1]) == who; k++ {
			run++
		}
		if run >= p.Need {
			return true
		}
	}
	return false
}

// Moves returns the successor positions, center columns first (the
// standard ordering heuristic, which the paper's left-to-right semantics
// reward).
func (p *oracleConnect4) Moves() []engine.Position {
	return p.AppendMoves(nil)
}

// AppendMoves implements engine.MoveAppender: the successors of Moves
// appended to dst, so the engine can recycle per-worker move buffers.
func (p *oracleConnect4) AppendMoves(dst []engine.Position) []engine.Position {
	dst = dst[:0]
	if p.Won() {
		return dst
	}
	mid := p.W / 2
	for off := 0; off < p.W; off++ {
		cols := [2]int{mid - off, mid + off}
		for i, c := range cols {
			if i == 1 && off == 0 {
				break // mid only once
			}
			if c < 0 || c >= p.W {
				continue
			}
			if q := p.Drop(c); q != nil {
				dst = append(dst, q)
			}
		}
	}
	return dst
}

// Evaluate scores the position for the side to move: loss if the opponent
// just won; otherwise a heuristic counting open lines.
func (p *oracleConnect4) Evaluate() int32 {
	if p.Won() {
		return -engine.WinScore()
	}
	me := p.Mover
	opp := int8(3 - me)
	var score int32
	// Score every window of length Need: +1 per my disc in windows with
	// no opponent disc, symmetric for the opponent, squared weighting.
	dirs := [4][2]int{{1, 0}, {0, 1}, {1, 1}, {1, -1}}
	for c := 0; c < p.W; c++ {
		for r := 0; r < p.H; r++ {
			for _, d := range dirs {
				ec, er := c+(p.Need-1)*d[0], r+(p.Need-1)*d[1]
				if ec < 0 || ec >= p.W || er < 0 || er >= p.H {
					continue
				}
				var mine, theirs int32
				for k := 0; k < p.Need; k++ {
					switch p.at(c+k*d[0], r+k*d[1]) {
					case me:
						mine++
					case opp:
						theirs++
					}
				}
				if theirs == 0 {
					score += mine * mine
				}
				if mine == 0 {
					score -= theirs * theirs
				}
			}
		}
	}
	return score
}

// Full reports whether the board has no empty cells.
func (p *oracleConnect4) Full() bool {
	for c := 0; c < p.W; c++ {
		if int(p.Heights[c]) < p.H {
			return false
		}
	}
	return true
}

func (p *oracleConnect4) String() string {
	sym := [...]string{".", "X", "O"}
	var b strings.Builder
	for r := p.H - 1; r >= 0; r-- {
		for c := 0; c < p.W; c++ {
			b.WriteString(sym[p.at(c, r)])
		}
		b.WriteString("\n")
	}
	for c := 0; c < p.W; c++ {
		fmt.Fprintf(&b, "%d", c%10)
	}
	return b.String()
}

var (
	_ engine.Position     = (*oracleConnect4)(nil)
	_ engine.MoveAppender = (*oracleConnect4)(nil)
)

// Hash returns a position hash (FNV-1a over the grid and mover),
// enabling the engine's transposition table.
func (p *oracleConnect4) Hash() uint64 {
	h := uint64(1469598103934665603)
	for _, c := range p.Grid {
		h ^= uint64(c)
		h *= 1099511628211
	}
	h ^= uint64(p.Mover)
	h *= 1099511628211
	return h
}
