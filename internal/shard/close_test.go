package shard

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"gametree/internal/engine"
)

// TestCoordinatorCloseLeavesNoGoroutines: closing the coordinator, then
// its workers, brings runtime.NumGoroutine back to where it stood before
// the cluster (and so before NewCoordinator) — for an idle cluster, with
// a search in flight, and after a search cancelled mid-fan-out. Transport
// readers, hello and reissue loops, worker runners and pool helpers must
// all exit.
func TestCoordinatorCloseLeavesNoGoroutines(t *testing.T) {
	// A deep search on the hash-mix tree: its tasks are still running on
	// the workers when the coordinator closes or the caller cancels.
	const game, pos, depth = "random", "42:5", 16
	closeAll := func(cl *cluster) {
		cl.coord.Close()
		for _, w := range cl.workers {
			w.Close()
		}
	}
	// inFlight starts a search and returns once its tasks are out on the
	// ring; the channel yields the search's error.
	inFlight := func(t *testing.T, cl *cluster, ctx context.Context) <-chan error {
		done := make(chan error, 1)
		go func() {
			_, err := cl.coord.Search(ctx, game, pos, depth)
			done <- err
		}()
		waitUntil(t, 5*time.Second, func() bool { return state(cl.coord).pending > 0 })
		return done
	}
	cases := []struct {
		name string
		run  func(t *testing.T, cl *cluster)
	}{
		{"idle", func(_ *testing.T, cl *cluster) { closeAll(cl) }},
		{"search-in-flight", func(t *testing.T, cl *cluster) {
			done := inFlight(t, cl, context.Background())
			closeAll(cl)
			if err := <-done; !errors.Is(err, ErrClosed) {
				t.Fatalf("search in flight at Close returned %v, want ErrClosed", err)
			}
		}},
		{"cancelled-mid-fan-out", func(t *testing.T, cl *cluster) {
			ctx, cancel := context.WithCancel(context.Background())
			done := inFlight(t, cl, ctx)
			cancel()
			if err := <-done; !errors.Is(err, engine.ErrCancelled) {
				t.Fatalf("cancelled search returned %v, want ErrCancelled", err)
			}
			closeAll(cl)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			cl := newCluster(t, 2)
			c.run(t, cl)
			waitUntil(t, 5*time.Second, func() bool { return runtime.NumGoroutine() <= base })
		})
	}
}
