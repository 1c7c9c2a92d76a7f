// Package core is the step simulator of Karp & Zhang (1989). It runs the
// paper's algorithms in both of its cost models:
//
//   - the leaf-evaluation model (Sections 2-4): Sequential SOLVE, Team
//     SOLVE(p) and Parallel SOLVE(w) for NOR trees, and the general pruning
//     process with Sequential α-β, Team α-β(p) and Parallel α-β(w) for
//     MIN/MAX trees;
//   - the node-expansion model (Section 5): the N- variants
//     NSequentialSolve, NTeamSolve, NParallelSolve, NSequentialAlphaBeta
//     and NParallelAlphaBeta.
//
// A run proceeds in synchronous basic steps. At each step the algorithm
// expands a set of nodes simultaneously; the running time is the number of
// steps, the number of processors is the maximum number of nodes expanded
// in one step, and the total work is the number of expansions. The two
// models differ only in what costs a unit. Under leaf evaluation every
// interior node starts expanded, so a unit is one leaf evaluated and all
// other computation is free. Under node expansion the algorithm is given
// only the root, and expanding an interior node (revealing its children)
// costs one unit just as evaluating a leaf does. The simulators operate on
// a fully materialized tree but only ever inspect nodes that have been
// generated, so they are faithful to both models.
package core

import (
	"errors"
	"fmt"

	"gametree/internal/tree"
)

// ErrStepLimit is returned when a simulation exceeds its MaxSteps budget.
var ErrStepLimit = errors.New("core: step limit exceeded")

// Metrics is the outcome of one simulated run.
type Metrics struct {
	Value      int32   // value of the root
	Steps      int64   // number of basic steps (the running time)
	Work       int64   // total units: leaves evaluated, or nodes expanded under node expansion
	Processors int     // max units spent in a single step
	DegreeHist []int64 // DegreeHist[k] = number of steps of parallel degree k (index 0 unused)

	// Leaves lists the settled nodes in order (ties within one step in
	// left-to-right order) when Options.RecordLeaves is set; nil
	// otherwise. Under leaf evaluation these are the evaluated leaves;
	// under node expansion (the N- entry points) they are every expanded
	// node, interior nodes included.
	Leaves []tree.NodeID
}

// Speedup returns s.Steps-based speedup of this run relative to a
// sequential run that used seqSteps steps.
func (m Metrics) Speedup(seqSteps int64) float64 {
	if m.Steps == 0 {
		return 0
	}
	return float64(seqSteps) / float64(m.Steps)
}

func (m Metrics) String() string {
	return fmt.Sprintf("value=%d steps=%d work=%d procs=%d", m.Value, m.Steps, m.Work, m.Processors)
}

// Options configures a simulated run.
type Options struct {
	// RecordLeaves makes the simulator record Metrics.Leaves: the
	// evaluated leaves in order under leaf evaluation (needed to build
	// skeletons H_T), every expanded node in order under node expansion.
	RecordLeaves bool
	// MaxSteps bounds the number of basic steps; 0 means no limit.
	MaxSteps int64
}

func (o Options) check(steps int64) error {
	if o.MaxSteps > 0 && steps > o.MaxSteps {
		return ErrStepLimit
	}
	return nil
}

func (m *Metrics) recordStep(degree int) {
	m.Steps++
	m.Work += int64(degree)
	if degree > m.Processors {
		m.Processors = degree
	}
	for len(m.DegreeHist) <= degree {
		m.DegreeHist = append(m.DegreeHist, 0)
	}
	m.DegreeHist[degree]++
}
