package experiments

import (
	"fmt"
	"strconv"

	"gametree/internal/bounds"
	"gametree/internal/core"
	"gametree/internal/randomized"
	"gametree/internal/stats"
	"gametree/internal/tree"
)

func mustNSolve(t *tree.Tree, w int, opt core.Options) core.Metrics {
	m, err := core.NParallelSolve(t, w, opt)
	if err != nil {
		panic(fmt.Sprintf("experiments: NParallelSolve(%d): %v", w, err))
	}
	return m
}

func mustNAB(t *tree.Tree, w int, opt core.Options) core.Metrics {
	m, err := core.NParallelAlphaBeta(t, w, opt)
	if err != nil {
		panic(fmt.Sprintf("experiments: NParallelAlphaBeta(%d): %v", w, err))
	}
	return m
}

// E7NodeExpansion — Theorem 4: N-Parallel SOLVE of width 1 achieves
// S*(T)/P*(T) >= c(n+1); and Proposition 6's (corrected) bound
// t*_{k+1} <= (n-k+1) C(n,k) (d-1)^k holds on skeletons. The alpha-beta
// counterparts (Section 5's closing remark) are swept as well.
func E7NodeExpansion(cfg Config) []*stats.Table {
	var tables []*stats.Table

	tb := stats.NewTable("E7a N-Parallel SOLVE width 1 on B(2,n)",
		"n", "kind", "S*(T)", "P*(T)", "speedup", "c=speedup/(n+1)")
	for _, kind := range []string{"worst", "iid-critical"} {
		for n := 4; n <= cfg.pick(14, 8); n += 2 {
			tr := norInstance(kind, 2, n, cfg.seed())
			seq := mustNSolve(tr, 0, core.Options{})
			par := mustNSolve(tr, 1, core.Options{})
			speedup := float64(seq.Steps) / float64(par.Steps)
			tb.AddRow(n, kind, seq.Steps, par.Steps, speedup, speedup/float64(n+1))
		}
	}
	tables = append(tables, tb)

	tb2 := stats.NewTable("E7b N-Parallel alpha-beta width 1 on M(2,n) i.i.d. values",
		"n", "S*", "P*", "speedup", "c=speedup/(n+1)")
	for n := 4; n <= cfg.pick(11, 6); n += 2 {
		var sw, pw stats.Welford
		for i := 0; i < cfg.trials(4); i++ {
			tr := tree.IIDMinMax(2, n, -1_000_000, 1_000_000, cfg.seed()+int64(i*17))
			sw.Add(float64(mustNAB(tr, 0, core.Options{}).Steps))
			pw.Add(float64(mustNAB(tr, 1, core.Options{}).Steps))
		}
		speedup := sw.Mean() / pw.Mean()
		tb2.AddRow(n, sw.Mean(), pw.Mean(), speedup, speedup/float64(n+1))
	}
	tables = append(tables, tb2)

	// Proposition 6 histogram check on a skeleton.
	d, n := 2, cfg.pick(12, 7)
	tr := norInstance("iid-critical", d, n, cfg.seed())
	seqLeaf := mustSolve(tr, 0, core.Options{RecordLeaves: true})
	h, _ := tree.Skeleton(tr, seqLeaf.Leaves)
	par := mustNSolve(h, 1, core.Options{})
	tb3 := stats.NewTable("E7c expansion-degree histogram on H_T vs Prop. 6 bound, B(2,"+strconv.Itoa(n)+")",
		"degree k+1", "t*_{k+1}(H_T)", "(n-k+1)C(n,k)(d-1)^k", "within")
	ok := true
	for deg := 1; deg < len(par.DegreeHist); deg++ {
		if par.DegreeHist[deg] == 0 {
			continue
		}
		b := bounds.Prop6Bound(d, n, deg-1)
		within := float64(par.DegreeHist[deg]) <= bounds.Float(b)
		ok = ok && within
		tb3.AddRow(deg, par.DegreeHist[deg], b.String(), within)
	}
	tb3.AddNote("all degrees within the corrected Proposition 6 bound: %v", ok)
	tb3.AddNote("the paper prints the factor as (n-k); its own sum over path lengths m=k..n has n-k+1 terms")
	tables = append(tables, tb3)
	return tables
}

// E8Randomized — Theorems 5 and 6: the randomized parallel algorithms keep
// an expected linear speedup over their randomized sequential
// counterparts, on worst-case instances where determinism is hopeless.
func E8Randomized(cfg Config) []*stats.Table {
	var tables []*stats.Table
	trials := cfg.trials(20)

	tb := stats.NewTable("E8a R-Parallel SOLVE width 1 vs R-Sequential SOLVE, worst-case B(2,n)",
		"n", "E[S_R*]", "E[P_R*]", "expected speedup", "c=speedup/(n+1)")
	for n := 4; n <= cfg.pick(12, 8); n += 2 {
		tr := tree.WorstCaseNOR(2, n, 1)
		seqMean := randomized.ExpectedWork(trials, cfg.seed(), func(seed int64) int64 {
			_, w := randomized.RSequentialSolve(tr, seed)
			return w
		})
		parMean, err := randomized.ExpectedSteps(trials, cfg.seed(), func(seed int64) (core.Metrics, error) {
			return randomized.RParallelSolve(tr, 1, seed, core.Options{})
		})
		if err != nil {
			panic(err)
		}
		speedup := seqMean / parMean
		tb.AddRow(n, seqMean, parMean, speedup, speedup/float64(n+1))
	}
	tables = append(tables, tb)

	tb2 := stats.NewTable("E8b R-Parallel alpha-beta width 1 vs R-Sequential alpha-beta, worst-ordered M(2,n)",
		"n", "E[S~_R]", "E[P~_R]", "expected speedup", "c=speedup/(n+1)")
	for n := 4; n <= cfg.pick(10, 6); n += 2 {
		tr := tree.WorstOrderedMinMax(2, n, cfg.seed())
		seqMean := randomized.ExpectedWork(trials, cfg.seed(), func(seed int64) int64 {
			_, w := randomized.RSequentialAlphaBeta(tr, seed)
			return w
		})
		parMean, err := randomized.ExpectedSteps(trials, cfg.seed(), func(seed int64) (core.Metrics, error) {
			return randomized.RParallelAlphaBeta(tr, 1, seed, core.Options{})
		})
		if err != nil {
			panic(err)
		}
		speedup := seqMean / parMean
		tb2.AddRow(n, seqMean, parMean, speedup, speedup/float64(n+1))
	}
	tables = append(tables, tb2)
	return tables
}
