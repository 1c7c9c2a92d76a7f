package core

import (
	"fmt"
	"math"

	"gametree/internal/tree"
)

// norState is the determination rule of the SOLVE family on NOR trees.
// It tracks, per node, the determined value (-1 while unknown) and the
// count of children determined to 0, which together drive both
// determination ("the value of v can be computed from the evaluated
// leaves") and death ("some ancestor of v is determined").
type norState struct {
	frontier
	det      []int8  // -1 unknown, else 0/1: the determined value of the node
	zeroKids []int32 // number of children determined to 0
}

func newNorState(t *tree.Tree, cm costModel) *norState {
	if t.Kind != tree.NOR {
		panic("core: SOLVE algorithms require a NOR tree")
	}
	s := &norState{
		det:      make([]int8, t.Len()),
		zeroKids: make([]int32, t.Len()),
	}
	for i := range s.det {
		s.det[i] = -1
	}
	s.init(t, s, cm)
	return s
}

func (s *norState) prune() bool  { return false } // determination prunes as it goes
func (s *norState) done() bool   { return s.det[0] >= 0 }
func (s *norState) value() int32 { return int32(s.det[0]) }

// expand determines a leaf by its value; an interior node's children are
// generated implicitly (a node is generated iff its parent is expanded).
func (s *norState) expand(v tree.NodeID) {
	if s.t.IsLeaf(v) {
		s.determine(v, int8(s.t.LeafValue(v)))
	}
}

// determine records that val(v) = b and propagates determination upward:
// a NOR node is determined 0 as soon as one child is determined 1, and
// determined 1 once all children are determined 0.
func (s *norState) determine(v tree.NodeID, b int8) {
	for v != tree.None {
		if s.det[v] >= 0 {
			return // already determined (possibly by a different child)
		}
		s.det[v] = b
		s.settled[v] = true
		p := s.t.Node(v).Parent
		if p == tree.None {
			return
		}
		if b == 1 {
			b = 0 // parent NOR of a 1-child is 0
			v = p
			continue
		}
		s.zeroKids[p]++
		if s.zeroKids[p] == s.t.Node(p).NumChildren {
			b = 1
			v = p
			continue
		}
		return
	}
}

// SequentialSolve runs the left-to-right sequential algorithm of Section 2:
// at each step, evaluate the leftmost live leaf.
func SequentialSolve(t *tree.Tree, opt Options) (Metrics, error) {
	return TeamSolve(t, 1, opt)
}

// TeamSolve runs Team SOLVE with p processors: at each step, evaluate the
// leftmost p live leaves. Proposition 1 of the paper shows this achieves a
// speedup of Theta(sqrt(p)) over Sequential SOLVE on uniform trees.
func TeamSolve(t *tree.Tree, p int, opt Options) (Metrics, error) {
	if err := checkProcs("TeamSolve", p); err != nil {
		return Metrics{}, err
	}
	return newNorState(t, leafEval).team(p, opt)
}

// ParallelSolve runs Parallel SOLVE of width w: at each step, evaluate all
// live leaves with pruning number at most w. Width 0 is identical to
// Sequential SOLVE; width 1 is the algorithm of Theorem 1, which achieves a
// linear speedup with n+1 processors on every instance of B(d,n).
func ParallelSolve(t *tree.Tree, w int, opt Options) (Metrics, error) {
	if err := checkWidth("ParallelSolve", w); err != nil {
		return Metrics{}, err
	}
	return newNorState(t, leafEval).width(w, 0, opt, nil)
}

// PruningNumbersNOR returns, for every currently live leaf of t given the
// set of already-determined values, its pruning number as the width
// collector computes it. It exists for tests that cross-check the
// collector against the definition. The evaluated map gives values of
// already-evaluated leaves.
func PruningNumbersNOR(t *tree.Tree, evaluated map[tree.NodeID]int32) map[tree.NodeID]int {
	s := newNorState(t, leafEval)
	for l, v := range evaluated {
		s.determine(l, int8(v))
	}
	out := make(map[tree.NodeID]int)
	if s.det[0] < 0 {
		s.collectWidth(0, 0, math.MaxInt)
	}
	for _, c := range s.cands {
		out[c.node] = c.pn
	}
	return out
}

func checkWidth(fn string, w int) error {
	if w < 0 {
		return fmt.Errorf("core: %s requires width >= 0, got %d", fn, w)
	}
	return nil
}

func checkProcs(fn string, p int) error {
	if p < 1 {
		return fmt.Errorf("core: %s requires p >= 1, got %d", fn, p)
	}
	return nil
}
