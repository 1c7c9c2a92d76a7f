package gametree_test

// One benchmark per reproduction experiment (E1-E13, see DESIGN.md and
// EXPERIMENTS.md) plus micro-benchmarks of the underlying machinery. The
// headline quantity of each experiment is attached to the benchmark via
// b.ReportMetric, so `go test -bench=.` regenerates the paper's numbers.

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"gametree"
)

// sink defeats dead-code elimination across benchmark iterations.
var sink atomic.Int64

func mustMetrics(b *testing.B) func(gametree.Metrics, error) gametree.Metrics {
	return func(m gametree.Metrics, err error) gametree.Metrics {
		b.Helper()
		if err != nil {
			b.Fatal(err)
		}
		sink.Add(m.Steps)
		return m
	}
}

func mustExpand(b *testing.B) func(gametree.ExpandMetrics, error) gametree.ExpandMetrics {
	return func(m gametree.ExpandMetrics, err error) gametree.ExpandMetrics {
		b.Helper()
		if err != nil {
			b.Fatal(err)
		}
		sink.Add(m.Steps)
		return m
	}
}

// BenchmarkE1TeamSolve — Proposition 1: Team SOLVE's sqrt(p) speedup on
// the maximal-pruning family.
func BenchmarkE1TeamSolve(b *testing.B) {
	t := gametree.BestCaseNOR(2, 14, 1)
	seq := mustMetrics(b)(gametree.SequentialSolve(t, gametree.Options{}))
	const p = 64
	var last gametree.Metrics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = mustMetrics(b)(gametree.TeamSolve(t, p, gametree.Options{}))
	}
	b.ReportMetric(float64(seq.Steps)/float64(last.Steps), "speedup")
	b.ReportMetric(8, "sqrt(p)")
}

// BenchmarkE2ParallelSolve — Theorem 1: width-1 linear speedup on
// worst-case B(2,14).
func BenchmarkE2ParallelSolve(b *testing.B) {
	t := gametree.WorstCaseNOR(2, 14, 1)
	seq := mustMetrics(b)(gametree.SequentialSolve(t, gametree.Options{}))
	var last gametree.Metrics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = mustMetrics(b)(gametree.ParallelSolve(t, 1, gametree.Options{}))
	}
	speedup := float64(seq.Steps) / float64(last.Steps)
	b.ReportMetric(speedup, "speedup")
	b.ReportMetric(speedup/float64(t.Height+1), "c")
}

// BenchmarkE3TotalWork — Corollary 1: W(T)/S(T) stays constant.
func BenchmarkE3TotalWork(b *testing.B) {
	t := gametree.IIDNor(2, 14, gametree.StationaryBias(2), 1)
	seq := mustMetrics(b)(gametree.SequentialSolve(t, gametree.Options{}))
	var last gametree.Metrics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = mustMetrics(b)(gametree.ParallelSolve(t, 1, gametree.Options{}))
	}
	b.ReportMetric(float64(last.Work)/float64(seq.Work), "W/S")
}

// BenchmarkE4StepBound — Proposition 3: width-1 on the skeleton H_T.
func BenchmarkE4StepBound(b *testing.B) {
	t := gametree.IIDNor(2, 14, gametree.StationaryBias(2), 1)
	seq := mustMetrics(b)(gametree.SequentialSolve(t, gametree.Options{RecordLeaves: true}))
	h, _ := gametree.Skeleton(t, seq.Leaves)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustMetrics(b)(gametree.ParallelSolve(h, 1, gametree.Options{}))
	}
}

// BenchmarkE5LowerBounds — Facts 1-2: sequential work on the best case
// meets the proof-tree bound.
func BenchmarkE5LowerBounds(b *testing.B) {
	t := gametree.BestCaseNOR(2, 16, 1)
	var last gametree.Metrics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = mustMetrics(b)(gametree.SequentialSolve(t, gametree.Options{}))
	}
	b.ReportMetric(float64(last.Work)/float64(gametree.Fact1(2, 16)), "work/bound")
}

// BenchmarkE6ParallelAlphaBeta — Theorem 3 on i.i.d. M(2,12).
func BenchmarkE6ParallelAlphaBeta(b *testing.B) {
	t := gametree.IIDMinMax(2, 12, -1_000_000, 1_000_000, 1)
	seq := mustMetrics(b)(gametree.SequentialAlphaBeta(t, gametree.Options{}))
	var last gametree.Metrics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = mustMetrics(b)(gametree.ParallelAlphaBeta(t, 1, gametree.Options{}))
	}
	speedup := float64(seq.Steps) / float64(last.Steps)
	b.ReportMetric(speedup, "speedup")
	b.ReportMetric(speedup/float64(t.Height+1), "c")
}

// BenchmarkE7NodeExpansion — Theorem 4 in the node-expansion model.
func BenchmarkE7NodeExpansion(b *testing.B) {
	t := gametree.WorstCaseNOR(2, 12, 1)
	seq := mustExpand(b)(gametree.NSequentialSolve(t, gametree.ExpandOptions{}))
	var last gametree.ExpandMetrics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = mustExpand(b)(gametree.NParallelSolve(t, 1, gametree.ExpandOptions{}))
	}
	b.ReportMetric(float64(seq.Steps)/float64(last.Steps), "speedup")
}

// BenchmarkE8Randomized — Theorem 5: R-Parallel SOLVE on the worst case.
func BenchmarkE8Randomized(b *testing.B) {
	t := gametree.WorstCaseNOR(2, 12, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustExpand(b)(gametree.RParallelSolve(t, 1, int64(i), gametree.ExpandOptions{}))
	}
}

// BenchmarkE9GoldenBias — Section 6's critical-bias instances.
func BenchmarkE9GoldenBias(b *testing.B) {
	t := gametree.IIDNor(2, 14, gametree.StationaryBias(2), 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustMetrics(b)(gametree.ParallelSolve(t, 1, gametree.Options{}))
	}
}

// BenchmarkE10WidthSweep — Conclusion: widths 0..3.
func BenchmarkE10WidthSweep(b *testing.B) {
	t := gametree.WorstCaseNOR(2, 12, 1)
	for _, w := range []int{0, 1, 2, 3} {
		b.Run("width="+string(rune('0'+w)), func(b *testing.B) {
			var last gametree.Metrics
			for i := 0; i < b.N; i++ {
				last = mustMetrics(b)(gametree.ParallelSolve(t, w, gametree.Options{}))
			}
			b.ReportMetric(float64(last.Processors), "procs")
		})
	}
}

// BenchmarkE11NearUniform — Corollary 2 instances.
func BenchmarkE11NearUniform(b *testing.B) {
	t := gametree.NearUniform(gametree.NOR, 4, 10, 0.5, 0.5, 1,
		func(i int) int32 { return int32(i) & 1 })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustMetrics(b)(gametree.ParallelSolve(t, 1, gametree.Options{}))
	}
}

// BenchmarkE12MessagePassing — Section 7 with one goroutine per level.
func BenchmarkE12MessagePassing(b *testing.B) {
	t := gametree.WorstCaseNOR(2, 12, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := gametree.EvaluateMessagePassing(t, gametree.MsgPassOptions{})
		if err != nil {
			b.Fatal(err)
		}
		sink.Add(m.Expansions)
	}
}

// BenchmarkE12Engine — wall-clock parallel speedup on Connect-4, on the
// pooled work-stealing substrate. nodes/sec and allocs/op are the headline
// metrics; bench/ measures the same engine end to end (lib_connect4).
func BenchmarkE12Engine(b *testing.B) {
	pos := gametree.StandardConnect4()
	const depth = 7
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		var nodes int64
		for i := 0; i < b.N; i++ {
			r := gametree.Search(pos, depth)
			nodes += r.Nodes
		}
		sink.Add(nodes)
		b.ReportMetric(float64(nodes)/b.Elapsed().Seconds(), "nodes/sec")
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		var nodes int64
		for i := 0; i < b.N; i++ {
			r, err := gametree.SearchParallel(context.Background(), pos, depth, runtime.GOMAXPROCS(0))
			if err != nil {
				b.Fatal(err)
			}
			nodes += r.Nodes
		}
		sink.Add(nodes)
		b.ReportMetric(float64(nodes)/b.Elapsed().Seconds(), "nodes/sec")
	})
	workers := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		workers = append(workers, n)
	}
	for _, w := range workers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			var nodes int64
			for i := 0; i < b.N; i++ {
				r, err := gametree.SearchParallel(context.Background(), pos, depth, w)
				if err != nil {
					b.Fatal(err)
				}
				nodes += r.Nodes
			}
			sink.Add(nodes)
			b.ReportMetric(float64(nodes)/b.Elapsed().Seconds(), "nodes/sec")
		})
	}
}

// BenchmarkE13Constant — the measured Theorem 1 constant at n=16.
func BenchmarkE13Constant(b *testing.B) {
	t := gametree.WorstCaseNOR(2, 16, 1)
	seq := mustMetrics(b)(gametree.SequentialSolve(t, gametree.Options{}))
	var last gametree.Metrics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = mustMetrics(b)(gametree.ParallelSolve(t, 1, gametree.Options{}))
	}
	b.ReportMetric(float64(seq.Steps)/float64(last.Steps)/17, "c")
}

// --- micro-benchmarks -------------------------------------------------------

func BenchmarkUniformGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := gametree.Uniform(gametree.NOR, 2, 14, nil)
		sink.Add(int64(t.Len()))
	}
}

func BenchmarkEvaluateReference(b *testing.B) {
	t := gametree.IIDMinMax(2, 14, -1000, 1000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.Add(int64(t.Evaluate()))
	}
}

func BenchmarkClassicalAlphaBeta(b *testing.B) {
	t := gametree.IIDMinMax(4, 7, -1000, 1000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := gametree.AlphaBeta(t)
		sink.Add(r.Leaves)
	}
}

func BenchmarkScout(b *testing.B) {
	t := gametree.IIDMinMax(4, 7, -1000, 1000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := gametree.Scout(t)
		sink.Add(r.Leaves)
	}
}

func BenchmarkRSequentialSolve(b *testing.B) {
	t := gametree.WorstCaseNOR(2, 12, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, w := gametree.RSequentialSolve(t, int64(i))
		sink.Add(w)
	}
}

func BenchmarkHornProofTree(b *testing.B) {
	kb, goal := gametree.LayeredHornKB(5, 4, 3, 2, 0.5, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := kb.ProofTree(goal, 0)
		if err != nil {
			b.Fatal(err)
		}
		sink.Add(int64(t.Len()))
	}
}

// --- benchmarks for the extension systems ------------------------------------

func BenchmarkSSS(b *testing.B) {
	t := gametree.WorstOrderedMinMax(2, 10, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := gametree.SSS(t)
		sink.Add(r.Leaves)
	}
}

func BenchmarkMsgPassAlphaBeta(b *testing.B) {
	t := gametree.IIDMinMax(2, 10, -1000, 1000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := gametree.EvaluateMessagePassingAlphaBeta(t, gametree.MsgPassOptions{})
		if err != nil {
			b.Fatal(err)
		}
		sink.Add(m.Expansions)
	}
}

func BenchmarkParallelSolveFixed(b *testing.B) {
	t := gametree.WorstCaseNOR(2, 12, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := gametree.ParallelSolveFixed(t, 3, 8, gametree.Options{})
		if err != nil {
			b.Fatal(err)
		}
		sink.Add(m.Steps)
	}
}

func BenchmarkTraceParallelSolve(b *testing.B) {
	t := gametree.IIDNor(2, 12, gametree.StationaryBias(2), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		steps, _, err := gametree.TraceParallelSolve(t, 1, gametree.Options{})
		if err != nil {
			b.Fatal(err)
		}
		sink.Add(int64(len(steps)))
	}
}

func BenchmarkEngineTT(b *testing.B) {
	pos := gametree.StandardConnect4()
	const depth = 7
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink.Add(gametree.Search(pos, depth).Nodes)
		}
	})
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tab := gametree.NewTranspositionTable(1 << 16)
			r, err := gametree.SearchOpt(context.Background(), pos, depth, gametree.EngineOptions{Table: tab, Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			sink.Add(r.Nodes)
		}
	})
}

func BenchmarkDomineering(b *testing.B) {
	pos := gametree.NewDomineering(4, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := gametree.SearchOpt(context.Background(), pos, 9, gametree.EngineOptions{Table: gametree.NewTranspositionTable(1 << 14), Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		sink.Add(r.Nodes)
	}
}
