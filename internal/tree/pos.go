package tree

// Pos is one node of an arena tree read as a two-player game, the form
// in which the search engine evaluates the paper's trees: it satisfies
// engine.Game[Pos], so the engine's search body runs on M(d,n) and
// B(d,n) instances, ordered or i.i.d., without allocating per node. The
// zero ID is the root.
//
// A MinMax tree reads in negamax form: the root is MAX, so a leaf at odd
// depth scores its negated value, and a search of the root returns
// Evaluate(). A NOR tree reads as the game the NOR normal form describes:
// the side to move at a leaf wins iff the leaf is 0, so by induction the
// mover at v wins iff the NOR value of v is 0, and a search of the root
// returns 1 - 2·Evaluate().
type Pos struct {
	T  *Tree
	ID NodeID
}

// Children appends the node's children, in arena order, to dst.
func (p Pos) Children(dst []Pos) []Pos {
	n := &p.T.Nodes[p.ID]
	for i := int32(0); i < n.NumChildren; i++ {
		dst = append(dst, Pos{p.T, n.FirstChild + NodeID(i)})
	}
	return dst
}

// Evaluate scores the node for the side to move: the leaf value with the
// negamax sign on a MinMax tree, +1 for a 0-leaf and -1 for a 1-leaf on
// a NOR tree, and 0 for an interior node cut off at a depth horizon.
func (p Pos) Evaluate() int32 {
	n := &p.T.Nodes[p.ID]
	switch {
	case n.NumChildren > 0:
		return 0
	case p.T.Kind == NOR && n.Value == 0:
		return 1
	case p.T.Kind == NOR:
		return -1
	case n.Depth%2 == 1:
		return -n.Value
	}
	return n.Value
}

// Key returns a splitmix64 mix of the node id, which names the node
// within its arena, and ok false: a tree node is reached by exactly one
// path, so a table could never hit on it.
func (p Pos) Key() (uint64, bool) {
	z := 0x9e3779b97f4a7c15 * (uint64(p.ID) + 1)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31, false
}
