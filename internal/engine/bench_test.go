package engine

// Benchmarks of the execution substrate: the search body on the pooled
// work-stealing cascade against the same body on a bare searcher. The
// workload is a pessimally-ordered tree (every child improves on its
// predecessor, so alpha-beta prunes little and almost every interior node
// above the sequential horizon becomes a split point) — the regime where
// per-split scheduling overhead dominates. The headline metrics are
// nodes/sec and allocs/op; see BENCH_engine.json and EXPERIMENTS.md E12
// for recorded numbers.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

const (
	benchDepth  = 8
	benchBranch = 4
)

var benchRoot = NewPessimalTree(benchDepth, benchBranch, 0)

func reportNodes(b *testing.B, nodes int64) {
	b.ReportMetric(float64(nodes)/b.Elapsed().Seconds(), "nodes/sec")
}

// BenchmarkEnginePooled compares sequential and pooled at GOMAXPROCS
// workers and sweeps the pooled worker count, every row on the
// MoveAppender view of the tree (recycled move buffers).
func BenchmarkEnginePooled(b *testing.B) {
	appender := (*BenchTreeAppender)(benchRoot)
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		var nodes int64
		for i := 0; i < b.N; i++ {
			nodes += Search(appender, benchDepth).Nodes
		}
		reportNodes(b, nodes)
	})
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		var nodes int64
		for i := 0; i < b.N; i++ {
			r, err := SearchOpt(context.Background(), appender, benchDepth, SearchOptions{Workers: runtime.GOMAXPROCS(0)})
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
				r, err := SearchOpt(context.Background(), appender, benchDepth, SearchOptions{Workers: w})
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
// transposition table in the loop, on a tree in which every node hashes.
// Each iteration gets a fresh table: the root probes like every other
// node, so a table kept across iterations would answer from one root hit.
func BenchmarkEnginePooledTT(b *testing.B) {
	rng := rand.New(rand.NewSource(78))
	var next uint64
	pos := buildDeepHashed(rng, 8, 4, &next)
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
