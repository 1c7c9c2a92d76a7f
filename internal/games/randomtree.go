package games

// RandomTree is a lazy, deterministic synthetic game: a uniform tree of
// the given branching factor whose node identities (and therefore leaf
// values) are pure functions of a 64-bit seed. Children derive their
// seeds by mixing the parent seed with the move index, so the whole tree
// is reproducible from the root seed without materializing a node — in
// contrast to an arena tree searched through tree.Pos, which is built in
// full up front. That makes RandomTree the serving-layer workload of choice: a
// gtload request is just a seed, distinct seeds give independent trees,
// and repeated seeds are byte-identical positions the server can
// coalesce and cache.
//
// RandomTree implements engine.Game, so the search body runs on it
// without allocating (through engine.Node), and engine.Position with
// engine.Hasher (the seed is the identity) and engine.MoveAppender.
//
// No two paths reach the same node — every seed is mixed from its
// parent's and the move index — so the tree has no transpositions, and
// Key says so: a search of it, in either form, never keys, probes or
// stores a transposition table, even one passed in SearchOptions. That
// includes the drivers (SearchIterative, MTDF, SearchPVS), which on this
// tree repeat each iteration's work without a table's move ordering or
// bounds.

import (
	"fmt"

	"gametree/internal/engine"
)

// RandomTree is one node of the synthetic tree. The zero value is not
// valid; use NewRandomTree.
type RandomTree struct {
	Seed   uint64
	Branch int8
}

// NewRandomTree returns the root of the synthetic tree for seed. branch
// is clamped to [2, 16].
func NewRandomTree(seed uint64, branch int) RandomTree {
	if branch < 2 {
		branch = 2
	}
	if branch > 16 {
		branch = 16
	}
	return RandomTree{Seed: seed, Branch: int8(branch)}
}

// mix64 is the splitmix64 finalizer: a bijective avalanche over uint64,
// so child seeds inherit no exploitable structure from the parent's.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// child returns the i'th child node.
func (p RandomTree) child(i int) RandomTree {
	return RandomTree{Seed: mix64(p.Seed + uint64(i)*0x9e3779b97f4a7c15 + 1), Branch: p.Branch}
}

// Child returns the i'th child node. Exported for the serving tier's
// position expander, which needs to name children by their canonical
// "seed:branch" strings without searching them.
func (p RandomTree) Child(i int) RandomTree { return p.child(i) }

// Moves returns the children. The tree is infinite — the search horizon
// (depth) bounds every game on it.
func (p RandomTree) Moves() []engine.Position {
	out := make([]engine.Position, p.Branch)
	for i := range out {
		out[i] = p.child(i)
	}
	return out
}

// Children implements engine.Game.
func (p RandomTree) Children(dst []RandomTree) []RandomTree {
	for i := 0; i < int(p.Branch); i++ {
		dst = append(dst, p.child(i))
	}
	return dst
}

// AppendMoves implements engine.MoveAppender.
func (p RandomTree) AppendMoves(dst []engine.Position) []engine.Position {
	for i := 0; i < int(p.Branch); i++ {
		dst = append(dst, p.child(i))
	}
	return dst
}

// Evaluate returns a deterministic pseudo-random value in [-1000, 1000],
// from the mover's perspective (negamax convention) and well inside the
// engine's win-score sentinels.
func (p RandomTree) Evaluate() int32 {
	return int32(mix64(p.Seed^0xd1b54a32d192ed03)%2001) - 1000
}

// Hash implements engine.Hasher. Seeds are already avalanche-mixed along
// every path, so the seed itself is the hash; the branching factor is
// folded in because trees of different width share no positions.
func (p RandomTree) Hash() uint64 {
	return p.Seed ^ (uint64(p.Branch) * 0x2545f4914f6cdd1d)
}

// Key implements engine.Game: the hash is the node's identity, and ok is
// false because the tree never transposes, so a table could never hit.
func (p RandomTree) Key() (uint64, bool) { return p.Hash(), false }

func (p RandomTree) String() string {
	return fmt.Sprintf("random(seed=%d,b=%d)", p.Seed, p.Branch)
}
