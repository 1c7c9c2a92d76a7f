package core

import (
	"math"

	"gametree/internal/tree"
)

// minmaxState implements the general pruning process of Section 4: the
// pruned tree T~ (via deleted flags), finished nodes and their values in
// T~, and the pruning rule "delete an unfinished v if alpha(v) >= beta(v)".
// Sequential alpha-beta and Parallel alpha-beta of width w are the
// instances of this process that expand, at each step, the unexpanded
// nodes of the pruned tree with pruning number 0 (resp. at most w).
type minmaxState struct {
	frontier
	deleted   []bool
	finished  []bool
	val       []int32 // value in the pruned tree; valid when finished
	finKids   []int32 // finished, non-deleted children
	liveKids  []int32 // non-deleted children
	workBelow []int32 // expansions in the subtree (guides the pruning walk)
}

const (
	negInf = math.MinInt32
	posInf = math.MaxInt32
)

func newMinmaxState(t *tree.Tree, cm costModel) *minmaxState {
	if t.Kind != tree.MinMax {
		panic("core: alpha-beta algorithms require a MinMax tree")
	}
	s := &minmaxState{
		deleted:   make([]bool, t.Len()),
		finished:  make([]bool, t.Len()),
		val:       make([]int32, t.Len()),
		finKids:   make([]int32, t.Len()),
		liveKids:  make([]int32, t.Len()),
		workBelow: make([]int32, t.Len()),
	}
	for i := range s.liveKids {
		s.liveKids[i] = t.Node(tree.NodeID(i)).NumChildren
	}
	s.init(t, s, cm)
	return s
}

func (s *minmaxState) done() bool   { return s.finished[0] }
func (s *minmaxState) value() int32 { return s.val[0] }

// expand finishes a leaf with its value, propagating "finished" upward,
// and counts the expansion on the path to the root. A node of the pruned
// tree is finished when every leaf below it in T~ is evaluated; its value
// in T~ is then the max/min of its non-deleted children's values.
func (s *minmaxState) expand(v tree.NodeID) {
	if s.t.IsLeaf(v) {
		s.finished[v], s.settled[v] = true, true
		s.val[v] = s.t.LeafValue(v)
		if p := s.t.Node(v).Parent; p != tree.None {
			s.finKids[p]++
			s.maybeFinish(p)
		}
	}
	for x := v; x != tree.None; x = s.t.Node(x).Parent {
		s.workBelow[x]++
	}
}

// maybeFinish finishes p if all its remaining (non-deleted) children are
// finished, and propagates the condition upward.
func (s *minmaxState) maybeFinish(p tree.NodeID) {
	for p != tree.None && !s.finished[p] && s.liveKids[p] > 0 && s.finKids[p] == s.liveKids[p] {
		s.refreshValue(p)
		s.finished[p], s.settled[p] = true, true
		q := s.t.Node(p).Parent
		if q != tree.None {
			s.finKids[q]++
		}
		p = q
	}
}

// refreshValue recomputes val[v] from the finished non-deleted children.
func (s *minmaxState) refreshValue(v tree.NodeID) {
	nd := s.t.Node(v)
	first := true
	var best int32
	for i := int32(0); i < nd.NumChildren; i++ {
		c := nd.FirstChild + tree.NodeID(i)
		if s.deleted[c] || !s.finished[c] {
			continue
		}
		cv := s.val[c]
		if first {
			best = cv
			first = false
			continue
		}
		if s.t.IsMaxNode(v) {
			if cv > best {
				best = cv
			}
		} else if cv < best {
			best = cv
		}
	}
	if first {
		panic("core: refreshValue on node with no finished children")
	}
	s.val[v] = best
}

// deleteSubtree removes v (and implicitly its whole subtree) from the
// pruned tree, possibly finishing ancestors whose remaining children are
// all finished.
func (s *minmaxState) deleteSubtree(v tree.NodeID) {
	s.deleted[v], s.settled[v] = true, true
	p := s.t.Node(v).Parent
	if p == tree.None {
		return
	}
	s.liveKids[p]--
	if s.finished[v] {
		s.finKids[p]--
	}
	s.maybeFinish(p)
}

// prune walks the pruned tree top-down carrying the alpha/beta window and
// applies the pruning rule. It only descends into subtrees with at least
// one expansion: a subtree with none contains no finished node, hence no
// sibling contributions, hence no descendant whose window is tighter than
// the subtree root's. Under leaf evaluation the expansions below a node
// are its evaluated leaves. Returns whether anything was deleted.
func (s *minmaxState) prune() bool {
	pruned := false
	var walk func(v tree.NodeID, alpha, beta int64)
	walk = func(v tree.NodeID, alpha, beta int64) {
		nd := s.t.Node(v)
		if nd.NumChildren == 0 {
			return
		}
		isMax := s.t.IsMaxNode(v)
		// Contribution of finished children to the siblings' window.
		contrib := int64(negInf)
		if !isMax {
			contrib = int64(posInf)
		}
		have := false
		for i := int32(0); i < nd.NumChildren; i++ {
			c := nd.FirstChild + tree.NodeID(i)
			if s.deleted[c] || !s.finished[c] {
				continue
			}
			cv := int64(s.val[c])
			if isMax {
				if cv > contrib {
					contrib = cv
				}
			} else if cv < contrib {
				contrib = cv
			}
			have = true
		}
		ca, cb := alpha, beta
		if have {
			if isMax {
				if contrib > ca {
					ca = contrib
				}
			} else if contrib < cb {
				cb = contrib
			}
		}
		for i := int32(0); i < nd.NumChildren; i++ {
			c := nd.FirstChild + tree.NodeID(i)
			if s.settled[c] {
				continue
			}
			if ca >= cb {
				s.deleteSubtree(c)
				pruned = true
				continue
			}
			if s.workBelow[c] > 0 {
				walk(c, ca, cb)
			}
		}
	}
	if !s.finished[0] && !s.deleted[0] {
		walk(0, int64(negInf), int64(posInf))
	}
	return pruned
}

// SequentialAlphaBeta runs the sequential alpha-beta pruning procedure in
// the leaf-evaluation model: at each step, evaluate the leftmost unfinished
// leaf of the current pruned tree, then prune by the rule
// alpha(v) >= beta(v).
func SequentialAlphaBeta(t *tree.Tree, opt Options) (Metrics, error) {
	return ParallelAlphaBeta(t, 0, opt)
}

// ParallelAlphaBeta runs Parallel alpha-beta of width w: at each step,
// evaluate all unfinished leaves of the current pruned tree whose pruning
// numbers are at most w. Width 0 is identical to Sequential alpha-beta;
// width 1 is the algorithm of Theorem 3.
func ParallelAlphaBeta(t *tree.Tree, w int, opt Options) (Metrics, error) {
	if err := checkWidth("ParallelAlphaBeta", w); err != nil {
		return Metrics{}, err
	}
	return newMinmaxState(t, leafEval).width(w, 0, opt, nil)
}

// TeamAlphaBeta runs the Team parallelization of the alpha-beta pruning
// process: at each step, evaluate the leftmost p unfinished leaves of the
// current pruned tree. It is the MIN/MAX counterpart of TeamSolve
// (Proposition 1's direct parallelization, with the same sqrt(p)
// behavior).
func TeamAlphaBeta(t *tree.Tree, p int, opt Options) (Metrics, error) {
	if err := checkProcs("TeamAlphaBeta", p); err != nil {
		return Metrics{}, err
	}
	return newMinmaxState(t, leafEval).team(p, opt)
}

// AlphaBetaBounds returns the alpha- and beta-bound of node v in the pruned
// tree reached after evaluating the given leaves in one batch and pruning
// to fixpoint. It exists for tests of Theorem 2's invariants.
func AlphaBetaBounds(t *tree.Tree, evaluated []tree.NodeID, v tree.NodeID) (alpha, beta int64) {
	s := newMinmaxState(t, leafEval)
	s.expandAll(evaluated)
	for s.prune() {
	}
	alpha, beta = int64(negInf), int64(posInf)
	for x := v; x != tree.None; x = s.t.Node(x).Parent {
		p := s.t.Node(x).Parent
		if p == tree.None {
			break
		}
		// x is an ancestor of v; siblings of x contribute to alpha when
		// x is on a MIN level (odd depth), to beta when on a MAX level.
		pn := s.t.Node(p)
		for i := int32(0); i < pn.NumChildren; i++ {
			u := pn.FirstChild + tree.NodeID(i)
			if u == x || s.deleted[u] || !s.finished[u] {
				continue
			}
			uv := int64(s.val[u])
			if s.t.Depth(x)%2 == 1 { // x on MIN level, parent is MAX
				if uv > alpha {
					alpha = uv
				}
			} else {
				if uv < beta {
					beta = uv
				}
			}
		}
	}
	return alpha, beta
}
