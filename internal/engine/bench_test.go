package engine

// Benchmarks of the execution substrate: the search body on the pooled
// work-stealing cascade against the same body on a bare searcher. The
// workload is the paper's worst-ordered M(4,8) (every child improves on
// its predecessor, so alpha-beta prunes little and almost every interior
// node above the sequential horizon becomes a split point) — the regime
// where per-split scheduling overhead dominates. The headline metrics are
// nodes/sec and allocs/op; see EXPERIMENTS.md E12 for recorded numbers
// and bench/ for the end-to-end benchmark.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"gametree/internal/tree"
)

const (
	benchDepth  = 8
	benchBranch = 4
)

var benchRoot = Arena(tree.WorstOrderedMinMax(benchBranch, benchDepth, 1))

func reportNodes(b *testing.B, nodes int64) {
	b.ReportMetric(float64(nodes)/b.Elapsed().Seconds(), "nodes/sec")
}

// BenchmarkEnginePooled compares sequential and pooled at GOMAXPROCS
// workers and sweeps the pooled worker count, every row on the arena
// tree as a value game (no allocation per node).
func BenchmarkEnginePooled(b *testing.B) {
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		var nodes int64
		for i := 0; i < b.N; i++ {
			nodes += Search(benchRoot, benchDepth).Nodes
		}
		reportNodes(b, nodes)
	})
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		var nodes int64
		for i := 0; i < b.N; i++ {
			r, err := SearchOpt(context.Background(), benchRoot, benchDepth, SearchOptions{Workers: runtime.GOMAXPROCS(0)})
			if err != nil {
				b.Fatal(err)
			}
			nodes += r.Nodes
		}
		reportNodes(b, nodes)
	})
	workers := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		workers = append(workers, n)
	}
	for _, w := range workers {
		b.Run(fmt.Sprintf("pooled-workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			var nodes int64
			for i := 0; i < b.N; i++ {
				r, err := SearchOpt(context.Background(), benchRoot, benchDepth, SearchOptions{Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				nodes += r.Nodes
			}
			reportNodes(b, nodes)
		})
	}
}

// BenchmarkEnginePooledTT is the pooled substrate with the 4-way bucketed
// transposition table in the loop, on an i.i.d. M(4,8) keyed at every
// node.
// Each iteration gets a fresh table: the root probes like every other
// node, so a table kept across iterations would answer from one root hit.
func BenchmarkEnginePooledTT(b *testing.B) {
	pos := Keyed(tree.IIDMinMax(4, 8, -100, 100, 78), 0)
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		var nodes int64
		for i := 0; i < b.N; i++ {
			r, err := SearchOpt(context.Background(), pos, 8,
				SearchOptions{Table: NewTable(1 << 16), Workers: runtime.GOMAXPROCS(0)})
			if err != nil {
				b.Fatal(err)
			}
			nodes += r.Nodes
		}
		reportNodes(b, nodes)
	})
}
