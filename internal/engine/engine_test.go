package engine

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"gametree/internal/tree"
)

func TestSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		depth := 1 + rng.Intn(5)
		tr := RandomArena(rng.Int63(), depth, 4)
		want := tr.Evaluate()
		got := Search(Arena(tr), depth)
		if got.Value != want {
			t.Fatalf("trial %d: Search=%d ref=%d", trial, got.Value, want)
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		depth := 3 + rng.Intn(4)
		p := Arena(RandomArena(rng.Int63(), depth, 4))
		seq := Search(p, depth)
		for _, workers := range []int{1, 2, 4, 8} {
			par, err := SearchOpt(context.Background(), p, depth, SearchOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if par.Value != seq.Value {
				t.Fatalf("trial %d workers %d: parallel %d != sequential %d",
					trial, workers, par.Value, seq.Value)
			}
		}
	}
}

func TestBestMoveIsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		depth := 3 + rng.Intn(3)
		tr := RandomArena(rng.Int63(), depth, 4)
		kids := int(tr.Node(tr.Root()).NumChildren)
		if kids < 2 {
			continue
		}
		r, err := SearchOpt(context.Background(), Arena(tr), depth, SearchOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if r.Best < 0 || r.Best >= kids {
			t.Fatalf("trial %d: bad best index %d", trial, r.Best)
		}
		// The root is a MAX node, so its move is worth the child's value.
		if got := tr.EvaluateAll()[tr.Child(tr.Root(), r.Best)]; got != r.Value {
			t.Fatalf("trial %d: chosen move worth %d, root value %d", trial, got, r.Value)
		}
	}
}

func TestDepthZeroAndTerminal(t *testing.T) {
	leaf := Arena(tree.FromNested(tree.MinMax, 7))
	if r := Search(leaf, 5); r.Value != 7 || r.Best != -1 {
		t.Errorf("terminal: %+v", r)
	}
	deep := Arena(RandomArena(4, 3, 3))
	if r := Search(deep, 0); r.Value != deep.Evaluate() || r.Best != -1 {
		t.Errorf("depth 0: %+v", r)
	}
	// The pooled entry point runs the same body: same answers, no split.
	for _, workers := range []int{1, 2} {
		opt := SearchOptions{Workers: workers}
		if r, err := SearchOpt(context.Background(), leaf, 5, opt); err != nil || r.Value != 7 || r.Best != -1 {
			t.Errorf("terminal, %d workers: %+v %v", workers, r, err)
		}
		if r, err := SearchOpt(context.Background(), deep, 0, opt); err != nil || r.Value != deep.Evaluate() || r.Best != -1 {
			t.Errorf("depth 0, %d workers: %+v %v", workers, r, err)
		}
	}
}

func TestCancellation(t *testing.T) {
	p := Arena(RandomArena(5, 10, 3))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SearchOpt(ctx, p, 10, SearchOptions{Workers: 4}); err != ErrCancelled {
		t.Errorf("want ErrCancelled, got %v", err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel2()
	big := Arena(RandomArena(6, 14, 4))
	start := time.Now()
	_, err := SearchOpt(ctx2, big, 14, SearchOptions{Workers: 4})
	if err != ErrCancelled && time.Since(start) > 5*time.Second {
		t.Errorf("cancellation did not stop the search (err=%v)", err)
	}
}

func TestPlay(t *testing.T) {
	// The leaves sit at depth 1, so they score -5 and -9 for their mover.
	// Negamax: root value = max(-(-5), -(-9)) = 9 via child 1.
	p := Arena(tree.FromNested(tree.MinMax, []any{5, 9}))
	idx, err := Play(context.Background(), p, 3, 2)
	if err != nil || idx != 1 {
		t.Errorf("Play = %d, %v; want 1", idx, err)
	}
	if _, err := Play(context.Background(), Arena(tree.FromNested(tree.MinMax, 0)), 3, 2); err == nil {
		t.Error("Play on terminal position should fail")
	}
}

func TestNodeCounting(t *testing.T) {
	p := Arena(RandomArena(7, 4, 3))
	seq := Search(p, 4)
	if seq.Nodes <= 0 {
		t.Error("no nodes counted")
	}
	par, err := SearchOpt(context.Background(), p, 4, SearchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if par.Nodes <= 0 {
		t.Error("no parallel nodes counted")
	}
}
