package engine

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// lazyDeep is an effectively infinite lazily-generated tree: Moves
// materialises children on demand, so a deep search runs until the
// deadline with no up-front allocation. Used by the cancellation and
// deadline-contract tests.
type lazyDeep struct{ seed uint64 }

func (p lazyDeep) Moves() []Position {
	out := make([]Position, 6)
	for i := range out {
		out[i] = lazyDeep{seed: p.seed*6 + uint64(i) + 1}
	}
	return out
}

func (p lazyDeep) Evaluate() int32 { return int32(p.seed%201) - 100 }

// TestResidentPoolReuse: a Pool must give the same answers as the
// one-shot engine across many consecutive searches — stale per-search
// state (stop flags, node counters, parked-worker wakeups) would show up
// as wrong values or a hang here.
func TestResidentPoolReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rp := NewPool(2, NewTable(1<<10), nil)
	defer rp.Close()
	var next uint64
	for trial := 0; trial < 12; trial++ {
		depth := 2 + rng.Intn(4)
		pos := buildHashed(rng, depth, 4, &next)
		want := Search(pos, depth)
		got, err := rp.Search(context.Background(), pos, depth)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.Value != want.Value {
			t.Fatalf("trial %d: pool %d != plain %d", trial, got.Value, want.Value)
		}
	}
}

// TestResidentPoolNodeParityPerSearch: with one worker and no table the
// pooled search visits exactly the sequential node set, and the count
// must not accumulate across searches — each run starts from zero.
func TestResidentPoolNodeParityPerSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	rp := NewPool(1, nil, nil)
	defer rp.Close()
	for trial := 0; trial < 6; trial++ {
		depth := 3 + rng.Intn(3)
		pos := buildRandomPos(rng, depth, 3)
		want := Search(pos, depth)
		got, err := rp.Search(context.Background(), pos, depth)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.Nodes != want.Nodes {
			t.Fatalf("trial %d: pool nodes %d != sequential %d", trial, got.Nodes, want.Nodes)
		}
	}
}

// TestResidentPoolClosed: Search after Close fails fast with
// ErrPoolClosed; Close is idempotent.
func TestResidentPoolClosed(t *testing.T) {
	rp := NewPool(2, nil, nil)
	rp.Close()
	rp.Close()
	if _, err := rp.Search(context.Background(), lazyDeep{}, 2); err != ErrPoolClosed {
		t.Fatalf("want ErrPoolClosed, got %v", err)
	}
}

// TestSearchTTCancellation: the one-worker table search (the calling
// goroutine alone, no helpers) honours its context — both when the
// context is dead on arrival and when it expires mid-search — under the
// same error contract as every other width.
func TestSearchTTCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if r, err := SearchOpt(ctx, lazyDeep{}, 3, SearchOptions{Workers: 1}); err != ErrCancelled {
		t.Fatalf("pre-cancelled: want ErrCancelled, got %v (result %+v)", err, r)
	}

	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel2()
	start := time.Now()
	if _, err := SearchOpt(ctx2, lazyDeep{}, 30, SearchOptions{Table: NewTable(1 << 10), Workers: 1}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timeout: want ErrCancelled wrapping DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestDeadlineNoPartialResult pins the SearchOpt deadline
// contract: a timed-out search returns the zero Result — never a partial
// value passed off as complete — and an error matching both ErrCancelled
// and context.DeadlineExceeded, so callers can tell a timeout from an
// explicit cancel.
func TestDeadlineNoPartialResult(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	res, err := SearchOpt(ctx, lazyDeep{}, 30, SearchOptions{
		Workers: 2,
		Table:   NewTable(1 << 10),
	})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("want errors.Is(err, ErrCancelled), got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want errors.Is(err, context.DeadlineExceeded), got %v", err)
	}
	if res != (Result{}) {
		t.Fatalf("timed-out search leaked a partial result: %+v", res)
	}

	// An explicit cancel keeps the bare sentinel: == must still hold for
	// existing callers, and DeadlineExceeded must not match.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	res2, err2 := SearchOpt(ctx2, lazyDeep{}, 30, SearchOptions{Workers: 2})
	if err2 != ErrCancelled {
		t.Fatalf("explicit cancel: want bare ErrCancelled, got %v", err2)
	}
	if errors.Is(err2, context.DeadlineExceeded) {
		t.Fatal("explicit cancel must not report DeadlineExceeded")
	}
	if res2 != (Result{}) {
		t.Fatalf("cancelled search leaked a partial result: %+v", res2)
	}
}

// TestConcurrentSearchesSharedTable: several goroutines hammer one
// shared Table — via one-shot SearchOpt calls and via resident Pools — on
// distinct positions with unique hashes. Every value must match the
// isolated sequential search: a torn or misattributed TT entry surfaces
// as a wrong root value, and the data paths run under -race in CI. The
// table is deliberately tiny so goroutines evict each other constantly.
func TestConcurrentSearchesSharedTable(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var next uint64
	const nFix = 4
	type fixture struct {
		pos   hashedPos
		depth int
		want  int32
	}
	fixtures := make([]fixture, nFix)
	for i := range fixtures {
		depth := 3 + rng.Intn(3)
		pos := buildHashed(rng, depth, 3, &next)
		fixtures[i] = fixture{pos: pos, depth: depth, want: Search(pos, depth).Value}
	}

	shared := NewTable(1 << 8)
	rounds := 8
	if testing.Short() {
		rounds = 3
	}

	var wg sync.WaitGroup
	errs := make(chan error, 2*nFix*rounds*2)

	// Path 1: concurrent one-shot SearchOpt calls on the shared
	// table, each goroutine walking the fixtures in a different rotation.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				f := fixtures[(g+r)%nFix]
				res, err := SearchOpt(context.Background(), f.pos, f.depth, SearchOptions{
					Workers: 2,
					Table:   shared,
				})
				if err != nil {
					errs <- err
					return
				}
				if res.Value != f.want {
					t.Errorf("goroutine %d round %d: shared-table value %d != isolated %d",
						g, r, res.Value, f.want)
					return
				}
			}
		}(g)
	}

	// Path 2: two resident Pools over the same table, searching
	// concurrently (the serve-layer configuration).
	pools := []*Pool{NewPool(2, shared, nil), NewPool(2, shared, nil)}
	defer pools[0].Close()
	defer pools[1].Close()
	for g, rp := range pools {
		wg.Add(1)
		go func(g int, rp *Pool) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				f := fixtures[(g*2+r)%nFix]
				res, err := rp.Search(context.Background(), f.pos, f.depth)
				if err != nil {
					errs <- err
					return
				}
				if res.Value != f.want {
					t.Errorf("pool %d round %d: shared-table value %d != isolated %d",
						g, r, res.Value, f.want)
					return
				}
			}
		}(g, rp)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
