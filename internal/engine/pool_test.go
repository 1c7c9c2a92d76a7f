package engine

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestDequeOwnerThieves hammers the Chase-Lev deque: one owner pushing
// and popping, several thieves stealing. Every task must be delivered
// exactly once. Run under -race this also exercises the bottom/top
// handshake.
func TestDequeOwnerThieves(t *testing.T) {
	const total = 20000
	const thieves = 4
	var d deque
	d.init()
	tasks := make([]task, total)
	taken := make([]atomic.Int32, total)
	var delivered atomic.Int64
	grab := func(tk *task) {
		if tk == nil {
			return
		}
		if taken[tk.idx].Add(1) != 1 {
			t.Errorf("task %d delivered twice", tk.idx)
		}
		delivered.Add(1)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tk, _, _ := d.steal()
				grab(tk)
			}
		}()
	}
	rng := rand.New(rand.NewSource(42))
	next := 0
	for next < total || delivered.Load() < total {
		if next < total && (rng.Intn(3) > 0 || delivered.Load() == int64(next)) {
			tasks[next].idx = next
			d.push(&tasks[next])
			next++
		} else {
			grab(d.pop())
		}
		if next == total && delivered.Load() < total {
			grab(d.pop()) // drain what the thieves leave behind
			runtime.Gosched()
		}
	}
	close(stop)
	wg.Wait()
	if delivered.Load() != total {
		t.Fatalf("delivered %d of %d tasks", delivered.Load(), total)
	}
}

// TestPooledMatchesSequential pins the substrate: the pooled cascade and
// the sequential search must agree on every value, up to heavy
// oversubscription.
func TestPooledMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		depth := 3 + rng.Intn(4)
		p := Arena(RandomArena(rng.Int63(), depth, 4))
		seq := Search(p, depth)
		for _, workers := range []int{1, 2, 4, 16} {
			pooled, err := SearchOpt(context.Background(), p, depth, SearchOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if pooled.Value != seq.Value {
				t.Fatalf("trial %d workers %d: pooled %d sequential %d",
					trial, workers, pooled.Value, seq.Value)
			}
		}
	}
}

// TestPooledNodeParityOneWorker: with a single worker the pooled cascade
// pops its own tasks in move order with the freshest window — it IS the
// sequential search, node for node (above the sequential-handoff horizon
// both visit the same set).
func TestPooledNodeParityOneWorker(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 10; trial++ {
		depth := 4 + rng.Intn(3)
		p := Arena(RandomArena(rng.Int63(), depth, 4))
		seq := Search(p, depth)
		pooled, err := SearchOpt(context.Background(), p, depth, SearchOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if pooled.Nodes != seq.Nodes {
			t.Fatalf("trial %d: pooled(1 worker) visited %d nodes, sequential %d",
				trial, pooled.Nodes, seq.Nodes)
		}
	}
}

// TestSearchParallelRace is the -race stress test of the pooled
// substrate: many workers, deep trees, a shared transposition table, and
// several concurrent top-level searches over the same table.
func TestSearchParallelRace(t *testing.T) {
	pos := Keyed(RandomArena(23, 7, 3), 0)
	want := Search(pos, 7).Value
	table := NewTable(1 << 10) // tiny: force constant bucket collisions
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				r, err := SearchOpt(context.Background(), pos, 7,
					SearchOptions{Table: table, Workers: 8})
				if err != nil {
					t.Error(err)
					return
				}
				if r.Value != want {
					t.Errorf("concurrent pooled search: %d want %d", r.Value, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPooledCancellationMidSearch: cancelling while workers are stealing
// must stop the pool promptly and report ErrCancelled.
func TestPooledCancellationMidSearch(t *testing.T) {
	p := Arena(RandomArena(24, 12, 4))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := SearchOpt(ctx, p, 12, SearchOptions{Workers: 8})
		done <- err
	}()
	cancel()
	if err := <-done; err != nil && err != ErrCancelled {
		t.Fatalf("unexpected error: %v", err)
	}
}
