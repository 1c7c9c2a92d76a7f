package core

import "gametree/internal/tree"

// This file holds the node-expansion model of Sections 1 and 5. The
// algorithm is given only the root of the input tree; applying the
// node-expansion operation to a node either reveals its leaf value or
// produces its children, and each expansion is one unit of work. The
// algorithms are the leaf-evaluation ones, run on the same frontier with
// nothing expanded at the start.

// NSequentialSolve runs N-Sequential SOLVE: at each step, expand the
// leftmost frontier node.
func NSequentialSolve(t *tree.Tree, opt Options) (Metrics, error) {
	return NParallelSolve(t, 0, opt)
}

// NParallelSolve runs N-Parallel SOLVE of width w: at each step, expand
// all frontier nodes with pruning number at most w. Width 0 is identical
// to N-Sequential SOLVE (Section 5); width 1 is the algorithm of
// Theorem 4.
func NParallelSolve(t *tree.Tree, w int, opt Options) (Metrics, error) {
	if err := checkWidth("NParallelSolve", w); err != nil {
		return Metrics{}, err
	}
	return newNorState(t, nodeExpansion).width(w, 0, opt, nil)
}

// NTeamSolve runs the node-expansion Team SOLVE: at each step, expand the
// leftmost p live frontier nodes. With p=1 it is N-Sequential SOLVE.
func NTeamSolve(t *tree.Tree, p int, opt Options) (Metrics, error) {
	if err := checkProcs("NTeamSolve", p); err != nil {
		return Metrics{}, err
	}
	return newNorState(t, nodeExpansion).team(p, opt)
}

// NSequentialAlphaBeta runs the node-expansion version of the sequential
// alpha-beta pruning procedure: expand the leftmost unexpanded node of the
// pruned generated tree.
func NSequentialAlphaBeta(t *tree.Tree, opt Options) (Metrics, error) {
	return NParallelAlphaBeta(t, 0, opt)
}

// NParallelAlphaBeta runs the node-expansion version of Parallel
// alpha-beta of width w (Section 5 notes the conversion; Theorem 3's
// speedup carries over).
func NParallelAlphaBeta(t *tree.Tree, w int, opt Options) (Metrics, error) {
	if err := checkWidth("NParallelAlphaBeta", w); err != nil {
		return Metrics{}, err
	}
	return newMinmaxState(t, nodeExpansion).width(w, 0, opt, nil)
}
