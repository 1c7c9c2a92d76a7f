package engine

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

// treePos adapts an explicit random tree to the Position interface so the
// parallel engine can be validated against exhaustive search.
type treePos struct {
	kids []*treePos
	val  int32
}

func (p *treePos) Moves() []Position {
	out := make([]Position, len(p.kids))
	for i, k := range p.kids {
		out[i] = k
	}
	return out
}

func (p *treePos) Evaluate() int32 { return p.val }

// buildRandomPos builds a random game DAG-free tree with values at the
// leaves (negamax convention: leaf value is from the mover's perspective).
func buildRandomPos(rng *rand.Rand, depth, maxKids int) *treePos {
	p := &treePos{val: int32(rng.Intn(201) - 100)}
	if depth == 0 {
		return p
	}
	n := 1 + rng.Intn(maxKids)
	for i := 0; i < n; i++ {
		p.kids = append(p.kids, buildRandomPos(rng, depth-1, maxKids))
	}
	return p
}

// negamaxRef is an independent exhaustive reference.
func negamaxRef(p *treePos, depth int) int32 {
	if depth == 0 || len(p.kids) == 0 {
		return p.val
	}
	best := int32(-1 << 30)
	for _, k := range p.kids {
		if v := -negamaxRef(k, depth-1); v > best {
			best = v
		}
	}
	return best
}

func TestSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		depth := 1 + rng.Intn(5)
		p := buildRandomPos(rng, depth, 4)
		want := negamaxRef(p, depth)
		got := Search(p, depth)
		if got.Value != want {
			t.Fatalf("trial %d: Search=%d ref=%d", trial, got.Value, want)
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		depth := 3 + rng.Intn(4)
		p := buildRandomPos(rng, depth, 4)
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
		p := buildRandomPos(rng, depth, 4)
		if len(p.kids) < 2 {
			continue
		}
		r, err := SearchOpt(context.Background(), p, depth, SearchOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if r.Best < 0 || r.Best >= len(p.kids) {
			t.Fatalf("trial %d: bad best index %d", trial, r.Best)
		}
		if got := -negamaxRef(p.kids[r.Best], depth-1); got != r.Value {
			t.Fatalf("trial %d: chosen move worth %d, root value %d", trial, got, r.Value)
		}
	}
}

func TestDepthZeroAndTerminal(t *testing.T) {
	leaf := &treePos{val: 7}
	if r := Search(leaf, 5); r.Value != 7 || r.Best != -1 {
		t.Errorf("terminal: %+v", r)
	}
	deep := buildRandomPos(rand.New(rand.NewSource(4)), 3, 3)
	if r := Search(deep, 0); r.Value != deep.val || r.Best != -1 {
		t.Errorf("depth 0: %+v", r)
	}
	// The pooled entry point runs the same body: same answers, no split.
	for _, workers := range []int{1, 2} {
		opt := SearchOptions{Workers: workers}
		if r, err := SearchOpt(context.Background(), leaf, 5, opt); err != nil || r.Value != 7 || r.Best != -1 {
			t.Errorf("terminal, %d workers: %+v %v", workers, r, err)
		}
		if r, err := SearchOpt(context.Background(), deep, 0, opt); err != nil || r.Value != deep.val || r.Best != -1 {
			t.Errorf("depth 0, %d workers: %+v %v", workers, r, err)
		}
	}
}

func TestCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := buildRandomPos(rng, 10, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SearchOpt(ctx, p, 10, SearchOptions{Workers: 4}); err != ErrCancelled {
		t.Errorf("want ErrCancelled, got %v", err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel2()
	big := buildRandomPos(rand.New(rand.NewSource(6)), 14, 4)
	start := time.Now()
	_, err := SearchOpt(ctx2, big, 14, SearchOptions{Workers: 4})
	if err != ErrCancelled && time.Since(start) > 5*time.Second {
		t.Errorf("cancellation did not stop the search (err=%v)", err)
	}
}

func TestPlay(t *testing.T) {
	p := &treePos{kids: []*treePos{{val: -5}, {val: -9}}}
	// Negamax: root value = max(-(-5), -(-9)) = 9 via child 1.
	idx, err := Play(context.Background(), p, 3, 2)
	if err != nil || idx != 1 {
		t.Errorf("Play = %d, %v; want 1", idx, err)
	}
	if _, err := Play(context.Background(), &treePos{}, 3, 2); err == nil {
		t.Error("Play on terminal position should fail")
	}
}

func TestNodeCounting(t *testing.T) {
	p := buildRandomPos(rand.New(rand.NewSource(7)), 4, 3)
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
