package games

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"gametree/internal/engine"
)

// c4Sample returns a fixed breadth-first sample of standard-board
// positions: the nodes of the first levels below seeded random 6-ply
// openings, level by level, up to n positions.
func c4Sample(n int) []Connect4 {
	rng := rand.New(rand.NewSource(6))
	var level, kids []Connect4
	for len(level) < 16 {
		p := *StandardConnect4()
		for ply := 0; ply < 6; ply++ {
			kids = p.Children(kids[:0])
			p = kids[rng.Intn(len(kids))]
		}
		level = append(level, p)
	}
	sample := append([]Connect4(nil), level...)
	for len(sample) < n {
		var next []Connect4
		for _, p := range level {
			next = p.Children(next)
		}
		sample = append(sample, next...)
		level = next
	}
	return sample[:n]
}

// c4Sink keeps the compiler from dropping the kernels' calls.
var c4Sink int

// BenchmarkConnect4Kernels reports ns/node for the three kernels a search
// calls per node on the standard board, over one fixed sample of 4,096
// positions.
func BenchmarkConnect4Kernels(b *testing.B) {
	sample := c4Sample(4096)
	perNode := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sample)), "ns/node")
	}
	b.Run("Children", func(b *testing.B) {
		buf := make([]Connect4, 0, 7)
		b.ResetTimer()
		for range b.N {
			for _, p := range sample {
				buf = p.Children(buf[:0])
				c4Sink += len(buf)
			}
		}
		perNode(b)
	})
	b.Run("Evaluate", func(b *testing.B) {
		for range b.N {
			for _, p := range sample {
				c4Sink += int(p.Evaluate())
			}
		}
		perNode(b)
	})
	b.Run("Won", func(b *testing.B) {
		for range b.N {
			for _, p := range sample {
				if p.Won() {
					c4Sink++
				}
			}
		}
		perNode(b)
	})
}

// BenchmarkConnect4OrderedSearch reports ns/search and nodes/search for
// depth-6 table searches, whose table nodes order their children by
// Evaluate, on a resident pool of one and of two workers over one table,
// as a server runs them. The searches walk c4Sample's 4,096 positions in
// order, so a root is searched again only after 4,096 others.
func BenchmarkConnect4OrderedSearch(b *testing.B) {
	sample := c4Sample(4096)
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			pool := engine.NewPool(w, engine.NewTable(1<<16), nil)
			defer pool.Close()
			var nodes int64
			for i := range b.N {
				r, err := pool.Search(context.Background(), engine.NewNode(sample[i%len(sample)]), 6)
				if err != nil {
					b.Fatal(err)
				}
				nodes += r.Nodes
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/search")
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/search")
		})
	}
}
