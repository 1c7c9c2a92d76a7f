package games

// Race-detector stress of the pooled parallel engine on real games: small
// boards, many more workers than cores, and a shared transposition table
// hammered by concurrent top-level searches. Run via `make race` (or
// `go test -race ./internal/games/ ...`).

import (
	"context"
	"sync"
	"testing"

	"gametree/internal/engine"
)

// TestSearchParallelRaceConnect4 runs the board both as a Position and as
// a value game, whose split tasks read siblings out of the splitting
// worker's child buffer while it joins.
func TestSearchParallelRaceConnect4(t *testing.T) {
	pos := NewConnect4(5, 4, 3) // small board, real branching
	want := engine.Search(pos, 6).Value
	table := engine.NewTable(1 << 12)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(pos engine.Position) {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				r, err := engine.SearchOpt(context.Background(), pos, 6,
					engine.SearchOptions{Table: table, Workers: 8})
				if err != nil {
					t.Error(err)
					return
				}
				if r.Value != want {
					t.Errorf("connect4 pooled search: %d want %d", r.Value, want)
					return
				}
			}
		}([]engine.Position{pos, engine.NewNode(*pos)}[g%2])
	}
	wg.Wait()
}

func TestSearchParallelRaceTicTacToe(t *testing.T) {
	var pos TTT // empty board: draw under perfect play
	r, err := engine.SearchOpt(context.Background(), pos, 9, engine.SearchOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 0 {
		t.Errorf("tic-tac-toe value %d, want 0 (draw)", r.Value)
	}
}
