package engine

import (
	"context"
	"math/rand"
	"testing"

	"gametree/internal/tree"
)

func TestMTDFMatchesSearchOnHashedTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		depth := 2 + rng.Intn(4)
		pos := Keyed(RandomArena(rng.Int63(), depth, 3), 0)
		plain := Search(pos, depth)
		for _, guess := range []int32{0, plain.Value, plain.Value + 50, plain.Value - 50} {
			r, err := MTDF(context.Background(), pos, depth, guess, SearchOptions{Table: NewTable(1 << 12)})
			if err != nil {
				t.Fatal(err)
			}
			if r.Value != plain.Value {
				t.Fatalf("trial %d guess %d: MTDF %d != search %d", trial, guess, r.Value, plain.Value)
			}
		}
	}
}

// One worker, so the node counts being compared are deterministic.
func TestMTDFGoodGuessIsCheap(t *testing.T) {
	depth := 6
	pos := Keyed(RandomArena(2, depth, 3), 0)
	plain := Search(pos, depth)
	ctx := context.Background()
	exact, err := MTDF(ctx, pos, depth, plain.Value, SearchOptions{Table: NewTable(1 << 14), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	far, err := MTDF(ctx, pos, depth, plain.Value+1000, SearchOptions{Table: NewTable(1 << 14), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Value != plain.Value || far.Value != plain.Value {
		t.Fatal("wrong values")
	}
	if exact.Nodes > far.Nodes {
		t.Errorf("exact guess used %d nodes, far guess %d — guess quality should pay",
			exact.Nodes, far.Nodes)
	}
}

func TestMTDFWithoutTable(t *testing.T) {
	// A nil table allocates an internal one; correctness unaffected.
	pos := Keyed(RandomArena(3, 4, 3), 0)
	plain := Search(pos, 4)
	if r, err := MTDF(context.Background(), pos, 4, 0, SearchOptions{}); err != nil || r.Value != plain.Value {
		t.Errorf("MTDF %d != %d (err %v)", r.Value, plain.Value, err)
	}
}

func TestMTDFTerminal(t *testing.T) {
	leaf := Arena(tree.FromNested(tree.MinMax, 5))
	if r, err := MTDF(context.Background(), leaf, 4, 0, SearchOptions{}); err != nil || r.Value != 5 {
		t.Errorf("terminal: %+v (err %v)", r, err)
	}
}
