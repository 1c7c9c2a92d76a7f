package engine

import "gametree/internal/tree"

// SearchBare runs the search body on a bare searcher over table: the
// sequential-plus-table reference that a one-worker pool over an equal
// table must match node for node (TestOneBodyAgreement).
func SearchBare(pos Position, depth int, table *Table) Result {
	table.Advance()
	e := &searcher{table: table}
	v, best := e.root(pos, depth, -scoreInf, scoreInf)
	return Result{Value: int32(v), Best: best, Nodes: e.nodes}
}

// TableEntries counts the live entries of t; a table with no slab has
// none.
func TableEntries(t *Table) int {
	sl := t.slab.Load()
	if sl == nil {
		return 0
	}
	n := 0
	for i := 0; i < len(sl.words); i += 2 {
		if sl.words[i].Load()|sl.words[i+1].Load() != 0 {
			n++
		}
	}
	return n
}

// RandomArena returns a seeded random MinMax arena tree of height depth:
// every interior node has 1 to maxKids children, every leaf sits at full
// depth and holds a value on [-100, 100].
func RandomArena(seed int64, depth, maxKids int) *tree.Tree {
	return tree.NearUniform(tree.MinMax, maxKids, depth, 1/float64(maxKids), 1, seed,
		tree.UniformValueLeaves(-100, 100, seed))
}

// Arena returns the root of t as a Position.
func Arena(t *tree.Tree) Node[tree.Pos] { return NewNode(tree.Pos{T: t}) }

// KeyedPos is a tree.Pos whose Key reports ok, so a table search keys,
// probes and stores it at every node above the split horizon. Node ids
// repeat from arena to arena; Salt keeps the keys of trees that share a
// table apart.
type KeyedPos struct {
	tree.Pos
	Salt uint64
}

// Children implements Game.
func (p KeyedPos) Children(dst []KeyedPos) []KeyedPos {
	n := p.T.Node(p.ID)
	for i := int32(0); i < n.NumChildren; i++ {
		dst = append(dst, KeyedPos{tree.Pos{T: p.T, ID: n.FirstChild + tree.NodeID(i)}, p.Salt})
	}
	return dst
}

// Key implements Game: the node's hash under the salt, and ok true.
func (p KeyedPos) Key() (uint64, bool) {
	h, _ := p.Pos.Key()
	return h ^ p.Salt, true
}

// Keyed returns the root of t as a Position whose every node is keyed.
func Keyed(t *tree.Tree, salt uint64) Node[KeyedPos] {
	return NewNode(KeyedPos{tree.Pos{T: t}, salt})
}
