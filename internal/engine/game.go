package engine

import (
	"slices"
	"unsafe"
)

// A game plugs into the engine in one of two ways. A Position is an
// interface value: easy to write, but every successor is boxed, so a
// search allocates per node unless the game hands out pointers it owns. A
// value game implements Game[P] for a value type P, and the search body —
// one generic function — is instantiated for P, so successors live in
// per-worker []P buffers and never reach the heap. Every Position-typed
// entry point runs the same body, instantiated for posNode, an adapter
// over Position; a value game enters those entry points wrapped in a
// Node[P].

// Game is the constraint of the search body over a value-typed position.
type Game[P any] interface {
	// Children appends the successors of the position to dst in
	// preference order and returns the extended slice; appending none
	// means the position is terminal. The engine owns the returned slice
	// and recycles it once the node is searched.
	Children(dst []P) []P
	// Evaluate returns a static score from the perspective of the side to
	// move, as Position.Evaluate does, and is called where it is: at
	// terminal positions, at the horizon, and on the children of a table
	// node to order them.
	Evaluate() int32
	// Key returns the position's identity hash, with ok true when the
	// position may transpose: the search keys, probes and stores it in a
	// table. ok false says the position never transposes (no two move
	// sequences reach it), so a table could never hit on it and the search
	// leaves the table alone; the hash still names the position.
	Key() (hash uint64, ok bool)
}

// Node carries a value game through the Position-typed APIs (Search,
// SearchOpt, the drivers, Pool.Search). It is one pointer wide, so boxing
// it as a Position does not allocate, and the search body recognises it
// and searches *Pos as a P: nothing below the root is boxed. Moves and
// AppendMoves allocate a slab of successors per call; the search body
// calls neither.
type Node[P Game[P]] struct{ Pos *P }

// NewNode wraps p.
func NewNode[P Game[P]](p P) Node[P] { return Node[P]{&p} }

// Moves returns the successors as Nodes pointing into one new slab.
func (n Node[P]) Moves() []Position { return n.AppendMoves(nil) }

// AppendMoves implements MoveAppender.
func (n Node[P]) AppendMoves(dst []Position) []Position {
	kids := (*n.Pos).Children(make([]P, 0, 8))
	dst = slices.Grow(dst, len(kids))
	for i := range kids {
		dst = append(dst, Node[P]{&kids[i]})
	}
	return dst
}

// Evaluate implements Position.
func (n Node[P]) Evaluate() int32 { return (*n.Pos).Evaluate() }

// Hash implements Hasher: the identity hash Key returns, whether or not
// the position transposes.
func (n Node[P]) Hash() uint64 {
	h, _ := n.Key()
	return h
}

// Key returns the position's Key, so the PV walk asks a Node what the
// search body asks its position.
func (n Node[P]) Key() (uint64, bool) { return (*n.Pos).Key() }

// searchFrom runs the search body's instantiation for P on *n.Pos. It is
// the unexported method by which the body recognises a Node, and the way a
// split task re-enters the body.
func (n Node[P]) searchFrom(e *searcher, depth int, alpha, beta int64) (int64, int) {
	return search(e, buffersOf[P](e), n.Pos, depth, alpha, beta)
}

// valueNode is the set of Node instantiations.
type valueNode interface {
	searchFrom(e *searcher, depth int, alpha, beta int64) (int64, int)
}

// posNode adapts a Position to Game. It has the memory layout of the
// Position it embeds, so a []posNode and a []Position share a backing
// array and a MoveAppender writes successors straight into the engine's
// buffer.
type posNode struct{ Position }

// Children generates through MoveAppender when the position offers it and
// otherwise returns Moves uncopied: a slice the position may own, which
// buffers.put recognises and leaves alone.
func (p posNode) Children(dst []posNode) []posNode {
	if ap, ok := p.Position.(MoveAppender); ok {
		return asPosNodes(ap.AppendMoves(asPositions(dst)))
	}
	return asPosNodes(p.Moves())
}

// Key is the table key of any position, as the search body sees it: the
// position's own Key method when it has one (a value game boxed as a
// Position or wrapped in a Node), so a game that never transposes stays
// out of the table in either form, and otherwise a hash through Hasher.
func (p posNode) Key() (uint64, bool) {
	switch h := p.Position.(type) {
	case interface{ Key() (uint64, bool) }:
		return h.Key()
	case Hasher:
		return h.Hash(), true
	}
	return 0, false
}

func asPositions(s []posNode) []Position {
	return unsafe.Slice((*Position)(unsafe.Pointer(unsafe.SliceData(s))), cap(s))[:len(s)]
}

func asPosNodes(s []Position) []posNode {
	return unsafe.Slice((*posNode)(unsafe.Pointer(unsafe.SliceData(s))), cap(s))[:len(s)]
}

// buffers is one worker's stack of child buffers for one P. Expansions
// nest, so the node at stack height k always takes the buffer in slot k:
// the stack grows to the recursion depth, not the node count, and every
// array on it was allocated by the engine or by Children appending to it.
// A split's tasks point into the splitting node's buffer, which is not
// handed out again before the split's join has drained.
type buffers[P any] struct {
	stack [][]P
	top   int
}

func (b *buffers[P]) get() []P {
	if b.top == len(b.stack) {
		b.stack = append(b.stack, nil)
	}
	b.top++
	return b.stack[b.top-1]
}

// put returns buf, taken by get and handed to Children, which returned
// kids. When kids shares buf's array the slot already holds it. Otherwise
// kids is a fresh array Children grew into or a slice the position owns,
// which the engine must not write, so the slot keeps buf, grown to fit
// this many children.
func (b *buffers[P]) put(buf, kids []P) {
	b.top--
	if len(kids) > cap(buf) {
		b.stack[b.top] = make([]P, 0, len(kids))
	}
}

// reset empties the stack, which a panic may have left unbalanced, and
// drops the positions its buffers still hold, so a resident pool does not
// keep the last search's tree reachable.
func (b *buffers[P]) reset() {
	b.top = 0
	for _, s := range b.stack {
		clear(s[:cap(s)])
	}
}

// bufferSet is a buffers of any P.
type bufferSet interface{ reset() }

// buffersOf returns e's buffer stack for P, creating it on first use. A
// searcher sees few position types, so a linear scan suffices.
func buffersOf[P any](e *searcher) *buffers[P] {
	for _, s := range e.bufs {
		if b, ok := s.(*buffers[P]); ok {
			return b
		}
	}
	b := new(buffers[P])
	e.bufs = append(e.bufs, b)
	return b
}
