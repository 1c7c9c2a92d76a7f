package engine_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gametree/internal/engine"
	"gametree/internal/games"
)

// TestSearchWindowContract pins Pool.SearchWindow's fail-soft contract,
// which the shard ring's cascade folds on: a value at or below alpha is
// an upper bound on the true value, a value at or above beta a lower
// bound, and a value strictly inside the window is the true value. It
// holds at one and two workers, with no table and over one table shared
// by every window of a position (so later windows run on the bound
// entries earlier ones stored).
func TestSearchWindowContract(t *testing.T) {
	type fixture struct {
		name  string
		pos   engine.Position
		depth int
	}
	var fixtures []fixture
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var next uint64
		depth := 5 + rng.Intn(3)
		fixtures = append(fixtures, fixture{fmt.Sprintf("tree/seed%d", seed), newSeededTree(rng, depth, 4, &next), depth})
	}
	fixtures = append(fixtures,
		fixture{"connect4", engine.NewNode(*games.StandardConnect4()), 6},
		fixture{"random", engine.NewNode(games.NewRandomTree(7, 5)), 7},
	)
	const open = math.MaxInt32
	ctx := context.Background()
	for _, f := range fixtures {
		want := engine.Search(f.pos, f.depth).Value
		windows := [][2]int32{
			{-open, open},
			{want - 1, want + 1},
			{want, want + 1},
			{want - 1, want},
			{want + 3, want + 20},
			{want - 20, want - 3},
			{-open, want},
			{want, open},
			{-open, want - 5},
			{want + 5, open},
		}
		for _, workers := range []int{1, 2} {
			for _, tabled := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/w%d/table=%v", f.name, workers, tabled), func(t *testing.T) {
					var table *engine.Table
					if tabled {
						table = engine.NewTable(1 << 12)
					}
					pool := engine.NewPool(workers, table, nil)
					defer pool.Close()
					for _, w := range windows {
						alpha, beta := w[0], w[1]
						r, err := pool.SearchWindow(ctx, f.pos, f.depth, alpha, beta)
						if err != nil {
							t.Fatal(err)
						}
						v := r.Value
						switch {
						case v <= alpha && want > v:
							t.Errorf("window (%d, %d): fail-low %d, but the true value %d is higher", alpha, beta, v, want)
						case v >= beta && want < v:
							t.Errorf("window (%d, %d): fail-high %d, but the true value %d is lower", alpha, beta, v, want)
						case v > alpha && v < beta && v != want:
							t.Errorf("window (%d, %d): %d inside the window, true value %d", alpha, beta, v, want)
						}
					}
					if r, err := pool.Search(ctx, f.pos, f.depth); err != nil || r.Value != want {
						t.Errorf("full window after the windowed searches: %d (%v), want %d", r.Value, err, want)
					}
				})
			}
		}
	}
}
