package engine

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"gametree/internal/telemetry"
	"gametree/internal/tree"
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
	for trial := 0; trial < 12; trial++ {
		depth := 2 + rng.Intn(4)
		seed := rng.Int63()
		pos := Keyed(RandomArena(seed, depth, 4), uint64(seed))
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
		pos := Arena(RandomArena(rng.Int63(), depth, 3))
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
	const nFix = 4
	type fixture struct {
		pos   Node[KeyedPos]
		depth int
		want  int32
	}
	fixtures := make([]fixture, nFix)
	for i := range fixtures {
		depth := 3 + rng.Intn(3)
		seed := rng.Int63()
		pos := Keyed(RandomArena(seed, depth, 3), uint64(seed))
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

// TestIdlePoolParks pins the idle protocol through the per-shard Parks
// counter. A helper parks once the gap after a search outlasts the grace
// spin, even when the pool was hot, and stays parked while the pool is
// idle; over a stream of back-to-back searches the helper stays awake
// instead of parking after every search. Two workers keep the test's own
// goroutine and the one helper within two cores.
func TestIdlePoolParks(t *testing.T) {
	const workers = 2
	rec := telemetry.NewRecorder()
	rp := NewPool(workers, nil, rec)
	defer rp.Close()
	parks := func() []int64 {
		snap := rec.Snapshot()
		out := make([]int64, workers)
		for i := range out {
			out[i] = snap.PerWorker[i].Parks
		}
		return out
	}
	allAbove := func(floor []int64) func() bool {
		return func() bool {
			now := parks()
			for i := 1; i < workers; i++ {
				if now[i] <= floor[i] {
					return false
				}
			}
			return true
		}
	}

	// A fresh pool is cold: its helpers park at once.
	waitFor(t, "every helper parked at start", allAbove(make([]int64, workers)))

	// The same stream of searches, first spaced by more than the grace
	// spin and then back to back, counted in the same run. Each search
	// visits most of the worst-ordered M(4,6) (≈4,900 nodes, longer than a
	// wake).
	// Spaced out, every search finds the pool cold, so its helper parks
	// after it: that count is the baseline. Back to back, the caller's own
	// work between searches is a fifth of the grace spin: long enough for
	// an idle helper to see the search end, too short for the pool to go
	// cold. A descheduled caller can still turn one gap cold, which costs
	// a park or two, so the bound is a fraction of the baseline rather
	// than zero.
	pos := Arena(tree.WorstOrderedMinMax(4, 6, 1))
	const searches = 50
	stream := func(gap func()) int64 {
		before := parks()
		for i := 0; i < searches; i++ {
			if _, err := rp.Search(context.Background(), pos, 6); err != nil {
				t.Fatal(err)
			}
			gap()
		}
		var n int64
		for i, c := range parks() {
			n += c - before[i]
		}
		return n
	}
	spaced := stream(func() { time.Sleep(2 * idleSpin) })
	backToBack := stream(func() {
		for start := time.Now(); time.Since(start) < idleSpin/5; {
		}
	})
	t.Logf("parks over %d searches: %d spaced, %d back to back", searches, spaced, backToBack)
	if backToBack*4 >= spaced {
		t.Fatalf("%d parks over %d back-to-back searches against %d spaced, want under a quarter",
			backToBack, searches, spaced)
	}

	// The next search runs on every worker, so each helper is awake; the
	// gap after it outlasts the grace spin, so each must park again.
	before := parks()
	everyWorker(t, rp)
	waitFor(t, "every helper parked after the gap", allAbove(before))

	// An idle pool costs nothing: parked helpers stay parked, so the
	// counter does not move however long the pool sits idle.
	settled := parks()
	time.Sleep(20 * idleSpin)
	if now := parks(); !slices.Equal(now, settled) {
		t.Fatalf("idle pool parks moved %v -> %v: a helper is cycling", settled, now)
	}
	if settled[0] != 0 {
		t.Fatalf("worker 0 parked %d times; only helpers park", settled[0])
	}
}

// everyWorker runs one Fanout whose invocations all wait for one another,
// so it returns only after every worker of rp — each helper included —
// was awake at once. It gives up after a second.
func everyWorker(t *testing.T, rp *Pool) {
	t.Helper()
	var in atomic.Int32
	want := int32(rp.Workers())
	deadline := time.Now().Add(time.Second)
	err := rp.Fanout(context.Background(), func(int, *telemetry.Shard, func() bool) {
		in.Add(1)
		for in.Load() < want && time.Now().Before(deadline) {
			runtime.Gosched()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Load(); got != want {
		t.Fatalf("%d of %d workers checked in", got, want)
	}
}

// A returned Fanout keeps nothing its function held. The deque slots of
// its tasks outlive the call, and a dropped proof-number solver's tree
// must not live on through them (the serve layer's parked-solver byte
// budget counts on it).
func TestFanoutKeepsNothing(t *testing.T) {
	rp := NewPool(2, nil, nil)
	defer rp.Close()
	held := new([1 << 10]byte)
	ref := weak.Make(held)
	fanoutHolding(t, rp, held)
	held = nil
	runtime.GC()
	if ref.Value() != nil {
		t.Fatal("the fanout's function is still reachable after Fanout returned")
	}
}

func fanoutHolding(t *testing.T, rp *Pool, held *[1 << 10]byte) {
	t.Helper()
	if err := rp.Fanout(context.Background(), func(int, *telemetry.Shard, func() bool) { _ = held[0] }); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond for up to a second.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// reachedRoot is an endless lazyDeep tree whose root closes reached when
// the search first expands it.
type reachedRoot struct {
	once    *sync.Once
	reached chan struct{}
}

func (r reachedRoot) Moves() []Position {
	r.once.Do(func() { close(r.reached) })
	return lazyDeep{}.Moves()
}

func (r reachedRoot) Evaluate() int32 { return 0 }

// TestPoolCloseLeavesNoGoroutines: closing a pool, resident or one-shot,
// in any idle state returns the process to its goroutine count from
// before the pool was built.
func TestPoolCloseLeavesNoGoroutines(t *testing.T) {
	ctx := context.Background()
	pos := Arena(RandomArena(15, 6, 4))
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"cold", func(t *testing.T) {
			rp := NewPool(4, nil, nil)
			if _, err := rp.Search(ctx, pos, 6); err != nil {
				t.Fatal(err)
			}
			rp.Close()
		}},
		{"hot-closed-in-grace-spin", func(t *testing.T) {
			rp := NewPool(4, nil, nil)
			for i := 0; i < 10; i++ {
				if _, err := rp.Search(ctx, pos, 6); err != nil {
					t.Fatal(err)
				}
			}
			rp.Close()
		}},
		{"closed-while-cancelled", func(t *testing.T) {
			rp := NewPool(4, nil, nil)
			cctx, cancel := context.WithCancel(ctx)
			root := reachedRoot{once: new(sync.Once), reached: make(chan struct{})}
			done := make(chan error, 1)
			go func() {
				_, err := rp.Search(cctx, root, 30)
				done <- err
			}()
			<-root.reached
			cancel()
			rp.Close()
			if err := <-done; err != ErrCancelled {
				t.Fatalf("cancelled search returned %v, want ErrCancelled", err)
			}
		}},
		{"one-shot", func(t *testing.T) {
			opt := SearchOptions{Workers: 4}
			if _, err := SearchOpt(ctx, pos, 6, opt); err != nil {
				t.Fatal(err)
			}
			if _, _, err := SearchIterative(ctx, pos, 6, opt); err != nil {
				t.Fatal(err)
			}
			if _, err := MTDF(ctx, pos, 6, 0, opt); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			c.run(t)
			waitFor(t, "goroutines back to the pre-pool baseline", func() bool {
				return runtime.NumGoroutine() <= base
			})
		})
	}
}
