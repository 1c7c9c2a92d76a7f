package core

import "gametree/internal/tree"

// This file implements the fixed-processor-count variants of the width
// algorithms: the paper's closing remark of Section 7 adapts the
// implementation to "the restriction of having only a fixed number p of
// processors available". In the leaf-evaluation model the natural
// counterpart evaluates, at each step, at most p of the width-w candidate
// leaves, preferring smaller pruning numbers (the leaves the sequential
// algorithm would reach soonest) and breaking ties left to right. With
// p >= the candidate count this is exactly Parallel SOLVE of width w;
// with w large and p fixed it interpolates toward Team SOLVE.

// ParallelSolveFixed runs Parallel SOLVE of width w restricted to p
// processors: at each step, of the live leaves with pruning number at
// most w, evaluate the p with the smallest pruning numbers (ties left to
// right). p <= 0 means unrestricted (identical to ParallelSolve).
func ParallelSolveFixed(t *tree.Tree, w, p int, opt Options) (Metrics, error) {
	if err := checkWidth("ParallelSolveFixed", w); err != nil {
		return Metrics{}, err
	}
	return newNorState(t, leafEval).width(w, p, opt, nil)
}

// ParallelAlphaBetaFixed is the fixed-processor variant of Parallel
// alpha-beta of width w. p <= 0 means unrestricted.
func ParallelAlphaBetaFixed(t *tree.Tree, w, p int, opt Options) (Metrics, error) {
	if err := checkWidth("ParallelAlphaBetaFixed", w); err != nil {
		return Metrics{}, err
	}
	return newMinmaxState(t, leafEval).width(w, p, opt, nil)
}
