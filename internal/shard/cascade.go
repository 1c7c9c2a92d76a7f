package shard

// Section 7's cascade over the expansion tree above the task frontier,
// as a plain function of where leaves run: the coordinator supplies a
// dispatch over the ring, a test twin one over an in-process pool. No
// lock, no clock and no transport live here.

import (
	"sync"

	"gametree/internal/engine"
	"gametree/internal/serve"
)

// node is one position of the expansion tree: an interior node the
// cascade folds here, or a leaf (no children) whose subtree dispatch
// evaluates. expand sets a leaf's pos and depth, the cascade its window
// (alpha, beta) just before dispatch, and dispatch its res.
type node struct {
	children    []*node
	pos         string
	depth       int
	alpha, beta int32
	res         engine.Result
}

// expand builds the tree of (game, pos) for `plies` more levels over
// serve.Expand and returns it with its leaf count. Terminal positions
// and exhausted depth become leaves regardless of plies left.
func expand(game, pos string, depth, plies int) (*node, int, error) {
	if plies <= 0 || depth <= 0 {
		return &node{pos: pos, depth: depth}, 1, nil
	}
	children, err := serve.Expand(game, pos)
	if err != nil {
		return nil, 0, err
	}
	if len(children) == 0 {
		return &node{pos: pos, depth: depth}, 1, nil
	}
	n := &node{children: make([]*node, len(children))}
	leaves := 0
	for i, ch := range children {
		sub, k, err := expand(game, ch, depth-1, plies-1)
		if err != nil {
			return nil, 0, err
		}
		n.children[i] = sub
		leaves += k
	}
	return n, leaves, nil
}

// cascade evaluates the tree below n on the open window (alpha, beta)
// the way a left-to-right alpha-beta search does. The eldest child's
// subtree is evaluated first, on the node's window. Its value narrows
// alpha, and if that reaches beta the younger brothers are never
// dispatched. Otherwise they all go out at once on the narrowed window —
// leaf brothers as one dispatch wave, interior brothers as concurrent
// cascades of their own — and the node keeps the FIRST strict
// improvement over the eldest. The value is fail-soft, like the
// engine's: exact inside the window, a bound at or beyond either side.
// On the root's full window a brother that fails high returns a bound no
// better than the eldest and never wins, so the value and the root move
// index both match engine.Search exactly.
//
// dispatch is called once per non-empty wave, possibly from several
// goroutines at once, and fills in each leaf's res. cascade returns only
// after every brother it started has returned, error or not.
func cascade(n *node, alpha, beta int32, dispatch func(leaves []*node) error) (value int32, best int, nodes int64, err error) {
	if n.children == nil {
		n.alpha, n.beta = alpha, beta
		if err := dispatch([]*node{n}); err != nil {
			return 0, -1, 0, err
		}
		return n.res.Value, n.res.Best, n.res.Nodes, nil
	}
	v, _, nodes, err := cascade(n.children[0], -beta, -alpha, dispatch)
	if err != nil {
		return 0, -1, 0, err
	}
	value, best = -v, 0
	brothers := n.children[1:]
	if value >= beta {
		brothers = nil // cutoff: the younger brothers are never dispatched
	}
	alpha = max(alpha, value)
	type outcome struct {
		v     int32
		nodes int64
		err   error
	}
	sub := make([]outcome, len(brothers))
	var leaves []*node
	var wg sync.WaitGroup
	for i, b := range brothers {
		if b.children == nil {
			b.alpha, b.beta = -beta, -alpha
			leaves = append(leaves, b)
			continue
		}
		wg.Add(1)
		go func(o *outcome, b *node) {
			defer wg.Done()
			o.v, _, o.nodes, o.err = cascade(b, -beta, -alpha, dispatch)
		}(&sub[i], b)
	}
	if len(leaves) > 0 {
		err = dispatch(leaves)
	}
	wg.Wait()
	if err != nil {
		return 0, -1, 0, err
	}
	for i, b := range brothers {
		o := sub[i]
		if b.children == nil {
			o.v, o.nodes = b.res.Value, b.res.Nodes
		}
		if o.err != nil {
			return 0, -1, 0, o.err
		}
		nodes += o.nodes
		if -o.v > value {
			value, best = -o.v, i+1
		}
	}
	return value, best, nodes, nil
}
