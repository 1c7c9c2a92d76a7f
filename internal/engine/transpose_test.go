package engine_test

import (
	"context"
	"fmt"
	"testing"

	"gametree/internal/engine"
	"gametree/internal/games"
	"gametree/internal/telemetry"
)

// TestNoTranspositionTableUntouched: a game whose Key says it never
// transposes keeps a pooled search off the table entirely, in its value
// form (a Node) and its Position form alike, at one worker and at two —
// no probe, no store, no entry left behind — while a game that
// transposes, searched over the same kind of pool, still probes.
func TestNoTranspositionTableUntouched(t *testing.T) {
	ctx := context.Background()
	search := func(t *testing.T, pos engine.Position, depth, workers int) (telemetry.Counts, *engine.Table) {
		t.Helper()
		tab := engine.NewTable(1 << 12)
		rec := telemetry.NewRecorder()
		pool := engine.NewPool(workers, tab, rec)
		defer pool.Close()
		want := engine.Search(pos, depth)
		r, err := pool.Search(ctx, pos, depth)
		if err != nil || r.Value != want.Value {
			t.Fatalf("pooled value %d (%v), Search %d", r.Value, err, want.Value)
		}
		return rec.Snapshot().Total, tab
	}
	for _, w := range []int{1, 2} {
		for _, f := range []struct {
			name string
			pos  engine.Position
		}{
			{"node", engine.NewNode(games.NewRandomTree(11, 5))},
			{"position", games.NewRandomTree(11, 5)},
		} {
			t.Run(fmt.Sprintf("random/%s/w%d", f.name, w), func(t *testing.T) {
				c, tab := search(t, f.pos, 8, w)
				if c.Nodes == 0 {
					t.Fatalf("no nodes recorded (%+v)", c)
				}
				if c.TTProbes != 0 || c.TTStores != 0 {
					t.Errorf("probes %d, stores %d, want none", c.TTProbes, c.TTStores)
				}
				if n := engine.TableEntries(tab); n != 0 {
					t.Errorf("table holds %d entries, want none", n)
				}
			})
		}
		t.Run(fmt.Sprintf("connect4/w%d", w), func(t *testing.T) {
			if c, _ := search(t, engine.NewNode(*games.StandardConnect4()), 6, w); c.TTProbes == 0 {
				t.Errorf("Connect-4 search made no probe (%+v)", c)
			}
		})
	}
}
