package core

import "gametree/internal/tree"

// This file instruments Parallel SOLVE with the proof objects of
// Proposition 3: the base path of each step (the root-leaf path to the
// leftmost live leaf) and its code — the vector whose i-th component is
// the number of live right-siblings of the i-th path node before the
// step. The proof of Proposition 3 shows that for width 1 the codes of
// successive steps strictly decrease in lexicographic order, and that the
// parallel degree of a step equals one plus the number of non-zero code
// components; TraceParallelSolve exposes both facts for verification.

// StepTrace records one step of an instrumented run.
type StepTrace struct {
	// BasePath is the root-leaf path to the leftmost live leaf before
	// the step, root first.
	BasePath []tree.NodeID
	// Code is the base path's code: Code[i] counts the live
	// right-siblings of BasePath[i+1] (the paper indexes path nodes from
	// the first level below the root; the root itself has no siblings).
	Code []int
	// Leaves are the leaves evaluated at this step, in left-to-right
	// order.
	Leaves []tree.NodeID
}

// Degree returns the parallel degree of the step.
func (s StepTrace) Degree() int { return len(s.Leaves) }

// NonZeroCode returns the number of non-zero code components.
func (s StepTrace) NonZeroCode() int {
	k := 0
	for _, c := range s.Code {
		if c > 0 {
			k++
		}
	}
	return k
}

// CompareCodes compares two codes lexicographically, padding the shorter
// one with zeros (paths can have different lengths on non-uniform trees).
// It returns -1, 0 or +1.
func CompareCodes(a, b []int) int {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		av, bv := 0, 0
		if i < len(a) {
			av = a[i]
		}
		if i < len(b) {
			bv = b[i]
		}
		switch {
		case av < bv:
			return -1
		case av > bv:
			return 1
		}
	}
	return 0
}

// TraceParallelSolve runs Parallel SOLVE of width w on a NOR tree and
// records, for every step, the base path, its code, and the leaves
// evaluated. Metrics match ParallelSolve exactly.
func TraceParallelSolve(t *tree.Tree, w int, opt Options) ([]StepTrace, Metrics, error) {
	if err := checkWidth("TraceParallelSolve", w); err != nil {
		return nil, Metrics{}, err
	}
	var traces []StepTrace
	m, err := newNorState(t, leafEval).width(w, 0, opt, &traces)
	return traces, m, err
}

// TraceParallelAlphaBeta is the MIN/MAX counterpart of TraceParallelSolve:
// it runs Parallel alpha-beta of width w recording, for each step, the
// base path (root to the leftmost unfinished leaf of the pruned tree) and
// its code (per path node, the number of unfinished right-siblings).
// Section 4 asserts without proof that "the conclusion of Proposition 3
// remains valid for MIN/MAX trees"; the traces let tests check the
// underlying code machinery — strict lexicographic decrease and the
// degree identity — directly on the pruning process.
func TraceParallelAlphaBeta(t *tree.Tree, w int, opt Options) ([]StepTrace, Metrics, error) {
	if err := checkWidth("TraceParallelAlphaBeta", w); err != nil {
		return nil, Metrics{}, err
	}
	var traces []StepTrace
	m, err := newMinmaxState(t, leafEval).width(w, 0, opt, &traces)
	return traces, m, err
}
