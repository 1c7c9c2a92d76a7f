// Package randomized implements the randomized algorithms of Section 6 of
// Karp & Zhang (1989): R-Sequential SOLVE, R-Parallel SOLVE, R-Sequential
// alpha-beta and R-Parallel alpha-beta, all in the node-expansion model.
//
// Conceptually each R-algorithm is its deterministic counterpart run on a
// randomly permuted input tree (children of every node independently and
// uniformly permuted). The package provides both that faithful "permute
// then run" form — used for the parallel algorithms, whose step-synchronous
// schedule needs the full permuted tree — and, for the sequential
// algorithms, the practical lazy form in which "randomizations are
// performed only to the extent necessary to determine the steps of the
// algorithm" (a random depth-first search).
package randomized

import (
	"math/rand"

	"gametree/internal/core"
	"gametree/internal/tree"
)

// RSequentialSolve runs R-Sequential SOLVE on a NOR tree: expand the root,
// then repeatedly evaluate a random unexpanded child recursively until the
// value of the node is determined. Returns the root value and the number
// of node expansions (the randomized complexity measure of Section 6).
// The lazy recursion is exactly equivalent in distribution to
// N-Sequential SOLVE on a permuted tree.
func RSequentialSolve(t *tree.Tree, seed int64) (int32, int64) {
	if t.Kind != tree.NOR {
		panic("randomized: RSequentialSolve requires a NOR tree")
	}
	rng := rand.New(rand.NewSource(seed))
	var work int64
	var solve func(v tree.NodeID) int32
	solve = func(v tree.NodeID) int32 {
		work++ // expand v
		nd := t.Node(v)
		if nd.NumChildren == 0 {
			return nd.Value
		}
		for _, i := range rng.Perm(int(nd.NumChildren)) {
			if solve(nd.FirstChild+tree.NodeID(i)) == 1 {
				return 0
			}
		}
		return 1
	}
	return solve(t.Root()), work
}

// RSequentialAlphaBeta runs the randomized sequential alpha-beta of
// Section 6: a depth-first alpha-beta search that visits the children of
// every node in random order. Returns the root value and the number of
// node expansions.
func RSequentialAlphaBeta(t *tree.Tree, seed int64) (int32, int64) {
	if t.Kind != tree.MinMax {
		panic("randomized: RSequentialAlphaBeta requires a MinMax tree")
	}
	rng := rand.New(rand.NewSource(seed))
	var work int64
	var search func(v tree.NodeID, alpha, beta int64) int64
	search = func(v tree.NodeID, alpha, beta int64) int64 {
		work++ // expand v
		nd := t.Node(v)
		if nd.NumChildren == 0 {
			return int64(nd.Value)
		}
		if t.IsMaxNode(v) {
			best := int64(-1 << 40)
			for _, i := range rng.Perm(int(nd.NumChildren)) {
				x := search(nd.FirstChild+tree.NodeID(i), alpha, beta)
				if x > best {
					best = x
				}
				if best > alpha {
					alpha = best
				}
				if alpha >= beta {
					break
				}
			}
			return best
		}
		best := int64(1 << 40)
		for _, i := range rng.Perm(int(nd.NumChildren)) {
			x := search(nd.FirstChild+tree.NodeID(i), alpha, beta)
			if x < best {
				best = x
			}
			if best < beta {
				beta = best
			}
			if alpha >= beta {
				break
			}
		}
		return best
	}
	return int32(search(t.Root(), -1<<40, 1<<40)), work
}

// RParallelSolve runs R-Parallel SOLVE of width w: N-Parallel SOLVE on the
// randomly permuted input tree.
func RParallelSolve(t *tree.Tree, w int, seed int64, opt core.Options) (core.Metrics, error) {
	return core.NParallelSolve(tree.Permute(t, seed), w, opt)
}

// RParallelAlphaBeta runs R-Parallel alpha-beta of width w: N-Parallel
// alpha-beta on the randomly permuted input tree.
func RParallelAlphaBeta(t *tree.Tree, w int, seed int64, opt core.Options) (core.Metrics, error) {
	return core.NParallelAlphaBeta(tree.Permute(t, seed), w, opt)
}

// RSequentialSolveViaPermute is the "permute then run" form of
// R-Sequential SOLVE. It exists to cross-check the lazy recursion: the two
// have identical work distributions.
func RSequentialSolveViaPermute(t *tree.Tree, seed int64, opt core.Options) (core.Metrics, error) {
	return core.NSequentialSolve(tree.Permute(t, seed), opt)
}

// ExpectedWork estimates E[work] of a randomized run by averaging over
// trials seeds derived from baseSeed. run must return the work of one run.
func ExpectedWork(trials int, baseSeed int64, run func(seed int64) int64) float64 {
	if trials <= 0 {
		panic("randomized: trials must be positive")
	}
	var sum float64
	for i := 0; i < trials; i++ {
		sum += float64(run(baseSeed + int64(i)*2654435761))
	}
	return sum / float64(trials)
}

// ExpectedSteps estimates E[steps] of a randomized parallel run.
func ExpectedSteps(trials int, baseSeed int64, run func(seed int64) (core.Metrics, error)) (float64, error) {
	if trials <= 0 {
		panic("randomized: trials must be positive")
	}
	var sum float64
	for i := 0; i < trials; i++ {
		m, err := run(baseSeed + int64(i)*2654435761)
		if err != nil {
			return 0, err
		}
		sum += float64(m.Steps)
	}
	return sum / float64(trials), nil
}

// RScout is the randomized SCOUT variant whose optimality among
// randomized algorithms for uniform MIN/MAX trees is the subject of the
// paper's closing remark in Section 6 (proved by Saks and Wigderson for
// the Boolean case): SCOUT with the children of every node visited in
// random order, in both the test and the evaluation phases. Returns the
// root value and the number of leaves evaluated.
func RScout(t *tree.Tree, seed int64) (int32, int64) {
	if t.Kind != tree.MinMax {
		panic("randomized: RScout requires a MinMax tree")
	}
	rng := rand.New(rand.NewSource(seed))
	var leaves int64

	var test func(v tree.NodeID, bound int64, gt bool) bool
	var eval func(v tree.NodeID) int64

	test = func(v tree.NodeID, bound int64, gt bool) bool {
		nd := t.Node(v)
		if nd.NumChildren == 0 {
			leaves++
			if gt {
				return int64(nd.Value) > bound
			}
			return int64(nd.Value) < bound
		}
		isMax := t.IsMaxNode(v)
		for _, i := range rng.Perm(int(nd.NumChildren)) {
			c := nd.FirstChild + tree.NodeID(i)
			if isMax {
				if test(c, bound, gt) {
					if gt {
						return true
					}
				} else if !gt {
					return false
				}
			} else {
				if test(c, bound, gt) {
					if !gt {
						return true
					}
				} else if gt {
					return false
				}
			}
		}
		if isMax {
			return !gt
		}
		return gt
	}

	eval = func(v tree.NodeID) int64 {
		nd := t.Node(v)
		if nd.NumChildren == 0 {
			leaves++
			return int64(nd.Value)
		}
		order := rng.Perm(int(nd.NumChildren))
		best := eval(nd.FirstChild + tree.NodeID(order[0]))
		for _, i := range order[1:] {
			c := nd.FirstChild + tree.NodeID(i)
			if t.IsMaxNode(v) {
				if test(c, best, true) {
					best = eval(c)
				}
			} else {
				if test(c, best, false) {
					best = eval(c)
				}
			}
		}
		return best
	}
	return int32(eval(t.Root())), leaves
}
