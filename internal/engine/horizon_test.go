package engine_test

import (
	"context"
	"testing"

	"gametree/internal/engine"
	"gametree/internal/games"
	"gametree/internal/telemetry"
)

// TestHorizonUnlimitedSearchSplits: a search with no depth horizon is
// above the split horizon at every node, so a pooled one opens split
// points, returns Search's value, and at one worker visits exactly
// Search's nodes.
func TestHorizonUnlimitedSearchSplits(t *testing.T) {
	ctx := context.Background()
	want := engine.Search(games.TTT{}, -1)

	rec := telemetry.NewRecorder()
	r, err := engine.SearchOpt(ctx, games.TTT{}, -1, engine.SearchOptions{Workers: 2, Telemetry: rec})
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != want.Value {
		t.Errorf("W=2 value %d, Search %d", r.Value, want.Value)
	}
	if c := rec.Snapshot().Total; c.Splits == 0 {
		t.Errorf("W=2 unlimited search opened no split points (%+v)", c)
	}

	r1, err := engine.SearchOpt(ctx, games.TTT{}, -1, engine.SearchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Value != want.Value || r1.Nodes != want.Nodes {
		t.Errorf("W=1: value %d nodes %d, Search value %d nodes %d", r1.Value, r1.Nodes, want.Value, want.Nodes)
	}
}

// TestHorizonTableStores pins, from outside the engine, where a pooled
// table search keys, probes and stores: only at nodes with more than two
// plies to go, or with no depth horizon at all.
func TestHorizonTableStores(t *testing.T) {
	ctx := context.Background()
	stored := func(tab *engine.Table, p engine.Position) bool {
		_, _, _, _, hit := tab.Probe(p.(engine.Hasher).Hash())
		return hit
	}
	search := func(pos engine.Position, depth int) *engine.Table {
		tab := engine.NewTable(1 << 12)
		if _, err := engine.SearchOpt(ctx, pos, depth, engine.SearchOptions{Table: tab, Workers: 2}); err != nil {
			t.Fatal(err)
		}
		return tab
	}

	c4 := games.StandardConnect4()
	for _, depth := range []int{2, 3} {
		tab := search(c4, depth)
		if got, want := stored(tab, c4), depth > 2; got != want {
			t.Errorf("depth %d: root stored %v, want %v", depth, got, want)
		}
		for i, kid := range c4.Moves() {
			if stored(tab, kid) {
				t.Errorf("depth %d: child %d, two plies to go, was stored", depth, i)
			}
		}
	}

	nim := games.NewNim(1, 2, 3)
	if !stored(search(nim, -1), nim) {
		t.Error("depth -1: root not stored")
	}
}

// TestHorizonPVFullLength: the table holds no best move within two plies
// of the horizon, nor any for a game that never transposes, yet the
// principal variation still runs the full depth when no terminal is in
// reach (six plies from the empty Connect-4 board cannot end the game,
// and the random tree never ends).
func TestHorizonPVFullLength(t *testing.T) {
	for _, pos := range []engine.Position{
		games.StandardConnect4(),
		engine.NewNode(*games.StandardConnect4()),
		engine.NewNode(games.NewRandomTree(7, 5)),
	} {
		_, pv, err := engine.SearchIterative(context.Background(), pos, 6, engine.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(pv) != 6 {
			t.Fatalf("%T: pv %v, want 6 moves", pos, pv)
		}
		cur := pos
		for i, mv := range pv {
			moves := cur.Moves()
			if mv < 0 || mv >= len(moves) {
				t.Fatalf("%T: pv[%d]=%d illegal (%d moves)", pos, i, mv, len(moves))
			}
			cur = moves[mv]
		}
	}
}
