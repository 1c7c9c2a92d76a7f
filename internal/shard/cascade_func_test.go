package shard

// The cascade as a plain function: a recording dispatch stands where the
// ring would, so these tests need no network and no clock. The twin
// dispatch searches every leaf on an in-process pool over its window —
// the same expansion, windows and waves the ring runs.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"gametree/internal/engine"
	"gametree/internal/serve"
)

// twin returns the one-process dispatch: each leaf of a wave searched,
// in order, on pool over the window the cascade gave it.
func twin(pool *engine.Pool, game string) func([]*node) error {
	return func(wave []*node) error {
		for _, l := range wave {
			pos, _, err := serve.ParsePosition(game, l.pos)
			if err != nil {
				return err
			}
			if l.res, err = pool.SearchWindow(context.Background(), pos, l.depth, l.alpha, l.beta); err != nil {
				return err
			}
		}
		return nil
	}
}

// recorder wraps a dispatch and keeps every wave it saw, in call order;
// next gets the wave's 0-based call number.
type recorder struct {
	mu    sync.Mutex
	waves [][]*node
	next  func(call int, wave []*node) error
}

func (r *recorder) dispatch(wave []*node) error {
	r.mu.Lock()
	call := len(r.waves)
	r.waves = append(r.waves, wave)
	r.mu.Unlock()
	return r.next(call, wave)
}

func (r *recorder) leaves() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, w := range r.waves {
		n += len(w)
	}
	return n
}

// through adapts a plain dispatch for a recorder.
func through(d func([]*node) error) func(int, []*node) error {
	return func(_ int, wave []*node) error { return d(wave) }
}

// TestCascadeFuncMatchesSearch: through the twin, (Value, Best) equals
// the sequential engine on every game served, at expansion depths 1–3
// and pool widths 1 and 2.
func TestCascadeFuncMatchesSearch(t *testing.T) {
	cases := []struct {
		game, pos string
		depth     int
	}{
		{"random", "42:5", 6},
		{"random", "9:3", 5},
		{"random", "77:4", 6},
		{"ttt", "", 5},
		{"ttt", "X...O....", 5},
		{"connect4", "33", 5},
		{"connect4", "", 4},
	}
	for _, w := range []int{1, 2} {
		pool := engine.NewPool(w, nil, nil)
		for _, plies := range []int{1, 2, 3} {
			for _, tc := range cases {
				want := reference(t, tc.game, tc.pos, tc.depth)
				root, _, err := expand(tc.game, canonical(t, tc.game, tc.pos), tc.depth, plies)
				if err != nil {
					t.Fatal(err)
				}
				v, best, _, err := cascade(root, -inf, inf, twin(pool, tc.game))
				if err != nil {
					t.Fatalf("W=%d expand %d %s %q: %v", w, plies, tc.game, tc.pos, err)
				}
				if v != want.Value || best != want.Best {
					t.Errorf("W=%d expand %d %s %q d=%d: got (v=%d best=%d), sequential (v=%d best=%d)",
						w, plies, tc.game, tc.pos, tc.depth, v, best, want.Value, want.Best)
				}
			}
		}
		pool.Close()
	}
}

// canonical is the serving layer's canonical form of pos.
func canonical(t *testing.T, game, pos string) string {
	t.Helper()
	_, key, err := serve.ParsePosition(game, pos)
	if err != nil {
		t.Fatal(err)
	}
	return key[len(game)+1:]
}

// TestCascadeFuncEldestFirst scripts the waves of TestCascadeEldestFirst:
// the eldest leaf goes alone on the full window; its brothers go
// together on (−∞, v₀); the fold keeps the first strict improvement.
func TestCascadeFuncEldestFirst(t *testing.T) {
	root, _, err := expand("random", "3:3", 3, 1) // three root children
	if err != nil {
		t.Fatal(err)
	}
	const v0 = 4
	script := [][]engine.Result{
		{{Value: v0, Nodes: 10}},
		// The first brother fails high (6 >= 4: no better for the root
		// than the eldest); the second is exact and improves the root.
		{{Value: 6, Nodes: 20}, {Value: 2, Nodes: 30}},
	}
	wantWindows := [][2]int32{{-inf, inf}, {-inf, v0}}
	rec := &recorder{}
	rec.next = func(k int, wave []*node) error {
		if k >= len(script) || len(wave) != len(script[k]) {
			return fmt.Errorf("wave %d has %d leaves, want the script's", k, len(wave))
		}
		for i, l := range wave {
			if got := [2]int32{l.alpha, l.beta}; got != wantWindows[k] {
				return fmt.Errorf("wave %d leaf %d window %v, want %v", k, i, got, wantWindows[k])
			}
			l.res = script[k][i]
		}
		return nil
	}
	v, best, nodes, err := cascade(root, -inf, inf, rec.dispatch)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.waves) != 2 {
		t.Fatalf("%d waves, want 2 (eldest, then brothers)", len(rec.waves))
	}
	if v != -2 || best != 2 || nodes != 60 {
		t.Fatalf("folded (v=%d best=%d nodes=%d), want (v=-2 best=2 nodes=60)", v, best, nodes)
	}
}

// TestCascadeFuncInteriorCutoff: at expansion depth 2 an interior node
// whose eldest child refutes it never dispatches that child's brothers,
// so some root dispatches fewer leaves than its frontier holds — and
// still gets the sequential answer.
func TestCascadeFuncInteriorCutoff(t *testing.T) {
	pool := engine.NewPool(1, nil, nil)
	defer pool.Close()
	for seed := 1; seed <= 20; seed++ {
		pos := fmt.Sprintf("%d:4", seed)
		root, frontier, err := expand("random", pos, 5, 2)
		if err != nil {
			t.Fatal(err)
		}
		rec := &recorder{next: through(twin(pool, "random"))}
		v, best, _, err := cascade(root, -inf, inf, rec.dispatch)
		if err != nil {
			t.Fatalf("%s: %v", pos, err)
		}
		if want := reference(t, "random", pos, 5); v != want.Value || best != want.Best {
			t.Fatalf("%s: got (v=%d best=%d), sequential (v=%d best=%d)", pos, v, best, want.Value, want.Best)
		}
		if sent := rec.leaves(); sent < frontier {
			t.Logf("%s: %d leaves dispatched of %d on the frontier", pos, sent, frontier)
			return
		}
	}
	t.Fatal("no root in 20 saved a leaf: the cascade never cut off an interior node")
}

// mixedTree builds a seeded tree whose brothers mix leaves and interior
// nodes, so a leaf wave runs alongside sub-cascades of its own node. A
// leaf's pos is its path from the root.
func mixedTree(rng *rand.Rand, path string, height int) *node {
	if height == 0 || (path != "" && rng.Intn(3) == 0) {
		return &node{pos: path}
	}
	n := &node{children: make([]*node, 2+rng.Intn(3))}
	for i := range n.children {
		n.children[i] = mixedTree(rng, fmt.Sprintf("%s%d", path, i), height-1)
	}
	return n
}

// TestCascadeFuncDispatchError fails the k-th dispatch for every k a
// full run makes: the cascade returns that error, the node whose wave
// failed dispatches no later wave, and the cascade returns only after
// every concurrent brother has — no dispatch still running, no goroutine
// left behind.
func TestCascadeFuncDispatchError(t *testing.T) {
	errBoom := errors.New("boom")
	// value is a stand-in leaf value: deterministic, so every run makes
	// the same waves, and spread enough that some nodes cut off.
	value := func(pos string) int32 {
		h := fnv.New32a()
		h.Write([]byte(pos))
		return int32(h.Sum32()%21) - 10
	}
	fill := func(wave []*node) {
		for _, l := range wave {
			l.res = engine.Result{Value: value(l.pos), Nodes: 1}
		}
	}

	root := mixedTree(rand.New(rand.NewSource(1)), "", 4)
	parent := map[*node]*node{}
	var walk func(n *node)
	walk = func(n *node) {
		for _, c := range n.children {
			parent[c] = n
			walk(c)
		}
	}
	walk(root)

	full := &recorder{next: func(_ int, wave []*node) error { fill(wave); return nil }}
	if _, _, _, err := cascade(root, -inf, inf, full.dispatch); err != nil {
		t.Fatal(err)
	}
	calls := len(full.waves)
	if calls < 3 {
		t.Fatalf("a full run made %d waves; the test needs concurrent ones", calls)
	}

	for k := 1; k <= calls; k++ {
		base := runtime.NumGoroutine()
		var running atomic.Int32
		var returned, late atomic.Bool
		rec := &recorder{}
		rec.next = func(call int, wave []*node) error {
			if returned.Load() {
				late.Store(true)
			}
			running.Add(1)
			defer running.Add(-1)
			if call == k-1 {
				return errBoom
			}
			fill(wave)
			// Take a while, so a cascade that returned without waiting for
			// its brothers would leave them dispatching after it.
			for i := 0; i < 100; i++ {
				runtime.Gosched()
			}
			return nil
		}
		_, _, _, err := cascade(root, -inf, inf, rec.dispatch)
		returned.Store(true)
		stillRunning := running.Load()
		for i := 0; runtime.NumGoroutine() > base; i++ {
			if i > 1_000_000 {
				t.Fatalf("k=%d: %d goroutines after the cascade, %d before", k, runtime.NumGoroutine(), base)
			}
			runtime.Gosched()
		}
		if stillRunning != 0 || late.Load() {
			t.Fatalf("k=%d: cascade returned with %d dispatches running (more started after: %v)", k, stillRunning, late.Load())
		}
		if !errors.Is(err, errBoom) {
			t.Fatalf("k=%d: cascade returned %v, want the dispatch's error", k, err)
		}
		failedNode := parent[rec.waves[k-1][0]]
		for _, w := range rec.waves[k:] {
			if parent[w[0]] == failedNode {
				t.Fatalf("k=%d: the node whose wave failed dispatched a later wave", k)
			}
		}
	}
}
