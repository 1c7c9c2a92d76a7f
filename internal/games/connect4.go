package games

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"gametree/internal/engine"
)

// Connect4 is a connect-four position on a parametric board (standard play
// is 7 columns by 6 rows, four in a row to win). Columns fill bottom-up.
//
// A position is a value: one 64-bit word of discs per player, laid out
// column by column with H+1 bits per column — H cells and a sentinel bit
// that stays empty, so a line stepping off the top or bottom of one column
// meets an empty bit instead of the next column. What depends only on the
// board size lives in a geometry, built by NewConnect4 and shared by every
// position descended from that board.
// A Connect4 is an engine.Game, searched without allocation through
// engine.Node; a *Connect4 is an engine.Position whose successors point
// into one slab per expansion. The zero value is not valid; use
// NewConnect4.
type Connect4 struct {
	geo        *c4Geometry
	x, o       uint64 // discs of player 1 (X) and player 2 (O)
	W, H, Need int8   // Need: in-a-row needed to win (4 in the standard game)
	Mover      int8   // 1 or 2
	LastCol    int8   // column of the last move, -1 initially
}

// c4Geometry holds what depends only on the board size.
type c4Geometry struct {
	columns []c4Column // in move order: center first, then alternating outward
	dirs    []c4Dir    // the directions in which a Need-long line fits on the board
	board   uint64     // every cell
	salt    uint64     // folded into Hash, so boards of different sizes do not collide
}

type c4Column struct {
	bottom, cells uint64 // the column's bottom cell and all its cells
	c             int8
}

// c4Dir is one direction a line can run in. Evaluate and Won step along
// lines of four by multiplying: x·2^(k·shift) is x moved k steps, and
// under GOAMD64=v1 a multiply is one micro-op where a shift by a variable
// count is two or three, after a move of the count into CX.
type c4Dir struct {
	shift uint      // bit distance of one step along a line
	start uint64    // cells where a Need-long line in this direction starts and stays on the board
	end   uint64    // cells where such a line ends
	step  [3]uint64 // 2^shift, 2^(2·shift), 2^(3·shift): one to three steps, for Need = 4
}

func newC4Geometry(w, h, need int) *c4Geometry {
	g := &c4Geometry{salt: mix64(uint64(w)<<16 | uint64(h)<<8 | uint64(need))}
	h1 := h + 1
	mid := w / 2
	for off := 0; off < w; off++ {
		for i, c := range [2]int{mid - off, mid + off} {
			if i == 1 && off == 0 {
				break // mid only once
			}
			if c >= 0 && c < w {
				g.columns = append(g.columns, c4Column{1 << (c * h1), (1<<h - 1) << (c * h1), int8(c)})
			}
		}
	}
	for _, step := range [4][2]int{{1, 0}, {0, 1}, {1, 1}, {1, -1}} {
		d := c4Dir{shift: uint(step[0]*h1 + step[1])}
		for c := 0; c < w; c++ {
			for r := 0; r < h; r++ {
				ec, er := c+(need-1)*step[0], r+(need-1)*step[1]
				if ec >= 0 && ec < w && er >= 0 && er < h {
					d.start |= 1 << (c*h1 + r)
				}
			}
		}
		if d.start != 0 {
			d.end = d.start << ((uint(need) - 1) * d.shift & 63)
			for k := range d.step {
				d.step[k] = 1 << ((uint(k) + 1) * d.shift & 63)
			}
			g.dirs = append(g.dirs, d)
		}
	}
	for c := 0; c < w; c++ {
		g.board |= (1<<h - 1) << (c * h1)
	}
	return g
}

// NewConnect4 returns the empty board. Zero or negative dimensions panic,
// and so does a board too large for one 64-bit word per player.
func NewConnect4(w, h, need int) *Connect4 {
	if w < 1 || h < 1 || need < 2 {
		panic("games: NewConnect4 requires w,h >= 1 and need >= 2")
	}
	if (h+1)*w > 64 || need > 64 {
		panic(fmt.Sprintf("games: NewConnect4(%d, %d, %d): a bitboard needs (h+1)*w <= 64 and need <= 64", w, h, need))
	}
	return &Connect4{
		geo: newC4Geometry(w, h, need),
		W:   int8(w), H: int8(h), Need: int8(need),
		Mover:   1,
		LastCol: -1,
	}
}

// StandardConnect4 returns the classic 7x6 four-in-a-row board.
func StandardConnect4() *Connect4 { return NewConnect4(7, 6, 4) }

// drop returns the empty cell a disc dropped in the column lands in, on a
// board whose discs are occupied, or 0 when the column is full. Adding
// the column's bottom bit to the occupied cells carries through the
// column's discs into its lowest empty cell, or into the sentinel when
// the column is full.
func (col c4Column) drop(occupied uint64) uint64 {
	return (occupied + col.bottom) & col.cells
}

// play writes into q, which holds a copy of p, the position after p's
// mover drops a disc into cell, in column c. Only the fields a move
// changes are written, each straight into q: a successor assembled in a
// temporary and then copied would be read back with wide loads over the
// narrow stores just made, and stall on them.
func (p *Connect4) play(q *Connect4, cell uint64, c int8) {
	if p.Mover == 1 {
		q.x = p.x | cell
	} else {
		q.o = p.o | cell
	}
	q.Mover = 3 - p.Mover
	q.LastCol = c
}

// Drop returns the position after the mover drops in column c, or nil if
// the column is full or out of range or the game is already won.
func (p *Connect4) Drop(c int) *Connect4 {
	if c < 0 || c >= int(p.W) || p.Won() {
		return nil
	}
	for _, col := range p.geo.columns {
		if int(col.c) == c {
			if cell := col.drop(p.x | p.o); cell != 0 {
				q := *p
				p.play(&q, cell, col.c)
				return &q
			}
		}
	}
	return nil
}

// Won reports whether the player who made the last move has a line: the
// game is over and the position has no successors. No position has
// successors past a win, so that line runs through the last-dropped disc.
// For Need = 4 a line is found by two multiply-ANDs per direction, which
// step along it as Evaluate does (c4Dir.step): bit e of l is set when the
// cells e and one step back hold the last mover's discs, and bit e of
// l & l·2^(2·shift) when the four cells ending at e do. Every other Need
// takes wonFold.
func (p Connect4) Won() bool {
	last := p.lastDiscs()
	if p.Need == 4 {
		for _, d := range p.geo.dirs {
			l := last & (last * d.step[0])
			if l&(l*d.step[1]) != 0 {
				return true
			}
		}
		return false
	}
	return p.wonFold(last)
}

// lastDiscs returns the discs of the player who made the last move. Its
// pointer receiver keeps the inlined call from copying the position.
func (p *Connect4) lastDiscs() uint64 {
	if p.Mover == 1 {
		return p.o
	}
	return p.x
}

// wonFold is Won for any Need: a fold of last, the last mover's discs,
// per direction.
func (p Connect4) wonFold(last uint64) bool {
	for _, d := range p.geo.dirs {
		if fold(last, d.shift, uint(p.Need), foldAll) != 0 {
			return true
		}
	}
	return false
}

// Children implements engine.Game: the successors, center columns first
// (the standard ordering heuristic, which the paper's left-to-right
// semantics reward), none after a win.
func (p Connect4) Children(dst []Connect4) []Connect4 {
	if p.Won() {
		return dst
	}
	occupied := p.x | p.o
	for _, col := range p.geo.columns {
		if cell := col.drop(occupied); cell != 0 {
			dst = append(dst, p)
			p.play(&dst[len(dst)-1], cell, col.c)
		}
	}
	return dst
}

// Moves returns the successor positions in Children's order.
func (p *Connect4) Moves() []engine.Position {
	return p.AppendMoves(nil)
}

// AppendMoves implements engine.MoveAppender: the successors of Moves
// appended to dst[:0], pointing into one new slab.
func (p *Connect4) AppendMoves(dst []engine.Position) []engine.Position {
	kids := p.Children(make([]Connect4, 0, p.W))
	dst = slices.Grow(dst[:0], len(kids))
	for i := range kids {
		dst = append(dst, &kids[i])
	}
	return dst
}

// Evaluate scores the position for the side to move: loss if the opponent
// just won; otherwise a heuristic counting open lines. Every window of
// Need cells scores the square of the mover's discs in it if it holds no
// opponent disc, and minus the square of the opponent's if it holds none
// of the mover's.
//
// Need = 4, the standard game and the served one, takes one
// straight-line pass per direction, kept for speed alone (EXPERIMENTS,
// "E12 addendum (Connect-4 kernels)"); every other Need takes
// evaluateFold. Each side's discs are moved one, two and three steps
// along the direction (c4Dir.step), so bit e of the four words holds the
// window that ends at cell e: all four of the opponent's set is the win
// test, and any set closes the window to the other side. count4 then sums
// each side's four planes into the bit planes of every open window's disc
// count, whose squares take four popcounts for the mover and three for
// the opponent, none of whose open windows holds four discs once the win
// test has failed. The oracle tests check both paths against the old
// board, and against each other on four-in-a-row boards.
func (p Connect4) Evaluate() int32 {
	if p.Need != 4 {
		return p.evaluateFold()
	}
	me, opp := p.x, p.o
	if p.Mover == 2 {
		me, opp = opp, me
	}
	var sum int
	for _, d := range p.geo.dirs {
		o1, o2, o3 := opp*d.step[0], opp*d.step[1], opp*d.step[2]
		if opp&o1&o2&o3 != 0 {
			return -engine.WinScore()
		}
		m1, m2, m3 := me*d.step[0], me*d.step[1], me*d.step[2]

		open := d.end &^ (opp | o1 | o2 | o3)
		c0, c1, c2 := count4(open&me, open&m1, open&m2, open&m3)
		sum += bits.OnesCount64(c0) + 4*bits.OnesCount64(c1) + 16*bits.OnesCount64(c2) + 4*bits.OnesCount64(c0&c1)
		open = d.end &^ (me | m1 | m2 | m3)
		c0, c1, _ = count4(open&opp, open&o1, open&o2, open&o3)
		sum -= bits.OnesCount64(c0) + 4*bits.OnesCount64(c1) + 4*bits.OnesCount64(c0&c1)
	}
	return int32(sum)
}

// count4 sums the four bit planes t0..t3 of windows of four cells (bit i
// of tk is the k-th cell of the window at i) with a carry-save adder into
// the bit planes c0, c1, c2 of each window's disc count c, whose square
// is c0 + 4·c1 + 16·c2 + 4·c0·c1 (c2 is set only for c = 4). It is small
// enough to inline, which Evaluate relies on.
func count4(t0, t1, t2, t3 uint64) (c0, c1, c2 uint64) {
	x1, a1 := t0^t1, t0&t1
	x2, a2 := t2^t3, t2&t3
	c0, a3 := x1^x2, x1&x2
	return c0, a1 ^ a2 ^ a3, a1 & a2
}

// evaluateFold is Evaluate for any Need, by fold and squares.
func (p Connect4) evaluateFold() int32 {
	me, opp := p.x, p.o
	if p.Mover == 2 {
		me, opp = opp, me
	}
	if p.wonFold(opp) {
		return -engine.WinScore()
	}
	n := uint(p.Need)
	var score int32
	for _, d := range p.geo.dirs {
		// A window is open to a side when it holds no disc of the other.
		mine := d.start &^ fold(opp, d.shift, n, foldAny)
		theirs := d.start &^ fold(me, d.shift, n, foldAny)
		score += squares(me, mine, d.shift, n) - squares(opp, theirs, d.shift, n)
	}
	return score
}

// The modes of fold: a line counts when all its cells are set, or when any is.
const foldAll, foldAny = true, false

// fold folds every n-cell line with step s into the bit of its first
// cell: with foldAll, bit i is set when all of the line's cells are set
// in b; with foldAny, when any is. It doubles the folded length each
// step, so it takes about log2(n) shifts. Callers pass a direction in
// which some line fits on the board, so every shift is below 64.
func fold(b uint64, s, n uint, all bool) uint64 {
	for run := uint(1); run < n; {
		step := min(run, n-run)
		if all {
			b &= b >> (step * s & 63)
		} else {
			b |= b >> (step * s & 63)
		}
		run += step
	}
	return b
}

// squares sums, over the n-cell windows with step s starting at the cells
// of open, the square of the number of discs of b in each. With b_k the
// disc bit of a window's k-th cell, (Σ b_k)² = Σ b_k + 2·Σ_{j<k} b_j·b_k,
// and each term is one popcount over all windows at once.
func squares(b, open uint64, s, n uint) int32 {
	var sum int
	for j := uint(0); j < n; j++ {
		bj := open & (b >> (j * s & 63))
		sum += bits.OnesCount64(bj)
		for k := j + 1; k < n; k++ {
			sum += 2 * bits.OnesCount64(bj&(b>>(k*s&63)))
		}
	}
	return int32(sum)
}

// Full reports whether the board has no empty cells.
func (p Connect4) Full() bool { return p.x|p.o == p.geo.board }

func (p Connect4) String() string {
	var b strings.Builder
	h1 := int(p.H) + 1
	for r := int(p.H) - 1; r >= 0; r-- {
		for c := 0; c < int(p.W); c++ {
			cell := uint64(1) << (c*h1 + r)
			switch {
			case p.x&cell != 0:
				b.WriteByte('X')
			case p.o&cell != 0:
				b.WriteByte('O')
			default:
				b.WriteByte('.')
			}
		}
		b.WriteByte('\n')
	}
	for c := 0; c < int(p.W); c++ {
		b.WriteByte(byte('0' + c%10))
	}
	return b.String()
}

// Hash returns a position hash, a mix of the two disc words and the board
// size, enabling the engine's transposition table. The mover is implied
// by the disc count.
func (p Connect4) Hash() uint64 { return mix64(mix64(p.x^p.geo.salt) ^ p.o) }

// Key implements engine.Game: every position hashes.
func (p Connect4) Key() (uint64, bool) { return p.Hash(), true }

var (
	_ engine.Game[Connect4] = Connect4{}
	_ engine.Position       = (*Connect4)(nil)
	_ engine.MoveAppender   = (*Connect4)(nil)
	_ engine.Hasher         = (*Connect4)(nil)
)
