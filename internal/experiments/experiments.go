// Package experiments drives the reproduction suite E1–E13 defined in
// DESIGN.md: one experiment per quantitative claim of Karp & Zhang (1989).
// Each experiment returns plain-text tables; cmd/gtbench renders the full
// suite and bench_test.go exposes one testing.B benchmark per experiment.
package experiments

import (
	"fmt"

	"gametree/internal/core"
	"gametree/internal/stats"
	"gametree/internal/tree"
)

// Config scales the suite. The zero value runs the full sizes used in
// EXPERIMENTS.md; Quick shrinks every sweep for fast runs.
type Config struct {
	Quick  bool
	Seed   int64
	Trials int // random instances per data point; 0 means a default
}

func (c Config) trials(def int) int {
	if c.Trials > 0 {
		return c.Trials
	}
	if c.Quick {
		return 2
	}
	return def
}

func (c Config) seed() int64 {
	if c.Seed != 0 {
		return c.Seed
	}
	return 1989_05 // the paper's date
}

// pick returns q when Quick, else f.
func (c Config) pick(f, q int) int {
	if c.Quick {
		return q
	}
	return f
}

// Experiment pairs an id with the function that produces its tables.
type Experiment struct {
	ID    string
	Claim string
	Run   func(Config) []*stats.Table
}

// Suite lists all experiments in order.
func Suite() []Experiment {
	return []Experiment{
		{"E1", "Prop. 1: Team SOLVE(p) speedup grows as sqrt(p)", E1TeamSolve},
		{"E2", "Thm. 1: Parallel SOLVE width 1 speedup is linear in n+1", E2ParallelSolve},
		{"E3", "Cor. 1: width-1 total work within a constant of S(T)", E3TotalWork},
		{"E4", "Prop. 3: step-degree histogram below sigma_k", E4StepBound},
		{"E5", "Facts 1-2: no algorithm beats the proof-tree bound", E5LowerBounds},
		{"E6", "Thm. 3: Parallel alpha-beta width 1 speedup linear in n+1", E6ParallelAlphaBeta},
		{"E7", "Thm. 4 / Prop. 6: node-expansion model speedups", E7NodeExpansion},
		{"E8", "Thms. 5-6: randomized variants, expected linear speedup", E8Randomized},
		{"E9", "Sec. 6: behavior at the critical i.i.d. bias (golden ratio)", E9GoldenBias},
		{"E10", "Conclusion: width sweep, processors vs speedup", E10WidthSweep},
		{"E11", "Cor. 2: near-uniform trees keep the linear speedup", E11NearUniform},
		{"E12", "Sec. 7: message-passing implementation and real goroutine engine", E12MessagePassing},
		{"E13", "Conclusion: the measured constant c beats the provable one", E13Constant},
	}
}

// mustSolve runs core.ParallelSolve and panics on the (impossible in these
// workloads) internal errors, keeping experiment code linear.
func mustSolve(t *tree.Tree, w int, opt core.Options) core.Metrics {
	m, err := core.ParallelSolve(t, w, opt)
	if err != nil {
		panic(fmt.Sprintf("experiments: ParallelSolve(%d): %v", w, err))
	}
	return m
}

func mustTeam(t *tree.Tree, p int, opt core.Options) core.Metrics {
	m, err := core.TeamSolve(t, p, opt)
	if err != nil {
		panic(fmt.Sprintf("experiments: TeamSolve(%d): %v", p, err))
	}
	return m
}

func mustAB(t *tree.Tree, w int, opt core.Options) core.Metrics {
	m, err := core.ParallelAlphaBeta(t, w, opt)
	if err != nil {
		panic(fmt.Sprintf("experiments: ParallelAlphaBeta(%d): %v", w, err))
	}
	return m
}

// norInstance generates the named instance family member.
func norInstance(kind string, d, n int, seed int64) *tree.Tree {
	switch kind {
	case "worst":
		return tree.WorstCaseNOR(d, n, 1)
	case "best":
		return tree.BestCaseNOR(d, n, 1)
	case "iid-critical":
		return tree.IIDNor(d, n, stationaryBias(d), seed)
	case "iid-half":
		return tree.IIDNor(d, n, 0.5, seed)
	default:
		panic("experiments: unknown NOR instance kind " + kind)
	}
}
