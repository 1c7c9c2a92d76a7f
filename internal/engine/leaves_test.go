package engine_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"gametree/internal/engine"
	"gametree/internal/games"
)

// textbook is negamax alpha-beta as the textbooks write it, over Moves
// and Evaluate alone: every node, leaves included, is one call and one
// visit, and a move replaces the best only when it is strictly better.
func textbook(p engine.Position, depth int, alpha, beta int64, visits *int64) (int64, int) {
	*visits++
	if depth == 0 {
		return int64(p.Evaluate()), -1
	}
	moves := p.Moves()
	if len(moves) == 0 {
		return int64(p.Evaluate()), -1
	}
	best, bestIdx := int64(math.MinInt64), -1
	for i, m := range moves {
		v, _ := textbook(m, depth-1, -beta, -alpha, visits)
		if v = -v; v > best {
			best, bestIdx = v, i
		}
		alpha = max(alpha, best)
		if alpha >= beta {
			break
		}
	}
	return best, bestIdx
}

// TestLeafParentsMatchTextbook: scoring a leaf parent's leaves in place
// is the same search as entering the body once per leaf. engine.Search,
// a one-worker pool, and a one-worker pool over a table on a game that
// never transposes, agree with textbook on value, best move and nodes
// visited — on random trees at every depth from 1 (a root that is itself
// a leaf parent) to 8, on Connect-4 openings at 1 to 6, and on
// tic-tac-toe to the end of the game, where no node is a leaf parent.
func TestLeafParentsMatchTextbook(t *testing.T) {
	type fixture struct {
		name   string
		pos    engine.Position
		depth  int
		random bool // never transposes: a table must change nothing
	}
	var fixtures []fixture
	for d := 1; d <= 8; d++ {
		for _, seed := range []uint64{3, 1 << 40} {
			fixtures = append(fixtures,
				fixture{fmt.Sprintf("random/%d/native", seed), engine.NewNode(games.NewRandomTree(seed, 5)), d, true},
				fixture{fmt.Sprintf("random/%d", seed), games.NewRandomTree(seed, 5), d, true})
		}
	}
	opening := games.StandardConnect4().Drop(3).Drop(2).Drop(3)
	for d := 1; d <= 6; d++ {
		fixtures = append(fixtures,
			fixture{"connect4/start", games.StandardConnect4(), d, false},
			fixture{"connect4/opening/native", engine.NewNode(*opening), d, false})
	}
	fixtures = append(fixtures, fixture{"ttt", games.TTT{}, -1, false})

	ctx := context.Background()
	for _, f := range fixtures {
		t.Run(fmt.Sprintf("%s/depth%d", f.name, f.depth), func(t *testing.T) {
			var visits int64
			v, best := textbook(f.pos, f.depth, -math.MaxInt32, math.MaxInt32, &visits)
			want := engine.Result{Value: int32(v), Best: best, Nodes: visits}
			if got := engine.Search(f.pos, f.depth); got != want {
				t.Fatalf("Search %+v, textbook %+v", got, want)
			}
			pools := map[string]*engine.Pool{"w1": engine.NewPool(1, nil, nil)}
			if f.random {
				pools["w1+table"] = engine.NewPool(1, engine.NewTable(1<<12), nil)
			}
			for name, pool := range pools {
				got, err := pool.Search(ctx, f.pos, f.depth)
				pool.Close()
				if err != nil || got != want {
					t.Fatalf("%s pool: %+v (%v), textbook %+v", name, got, err, want)
				}
			}
		})
	}
}
