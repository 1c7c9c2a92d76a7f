package engine

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestDriversCancellation: the three drivers inherit the one error
// contract from the search body's pool — a cancelled or timed-out run
// returns the zero Result (and, from SearchIterative, no principal
// variation), ErrCancelled, and on a timeout additionally
// context.DeadlineExceeded.
func TestDriversCancellation(t *testing.T) {
	drivers := []struct {
		name string
		run  func(ctx context.Context, opt SearchOptions) (Result, error)
	}{
		{"SearchIterative", func(ctx context.Context, opt SearchOptions) (Result, error) {
			r, pv, err := SearchIterative(ctx, lazyDeep{}, 30, opt)
			if err != nil && pv != nil {
				t.Errorf("SearchIterative returned a pv alongside %v", err)
			}
			return r, err
		}},
		{"MTDF", func(ctx context.Context, opt SearchOptions) (Result, error) {
			return MTDF(ctx, lazyDeep{}, 30, 0, opt)
		}},
		{"SearchPVS", func(ctx context.Context, opt SearchOptions) (Result, error) {
			return SearchPVS(ctx, lazyDeep{}, 30, opt)
		}},
	}
	for _, d := range drivers {
		for _, workers := range []int{1, 2} {
			opt := SearchOptions{Workers: workers}

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			r, err := d.run(ctx, opt)
			if err != ErrCancelled || r != (Result{}) {
				t.Errorf("%s(w=%d) pre-cancelled: want zero Result and bare ErrCancelled, got %+v, %v",
					d.name, workers, r, err)
			}

			ctx, cancel = context.WithTimeout(context.Background(), 5*time.Millisecond)
			start := time.Now()
			r, err = d.run(ctx, opt)
			cancel()
			if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) || r != (Result{}) {
				t.Errorf("%s(w=%d) timeout: want zero Result and ErrCancelled wrapping DeadlineExceeded, got %+v, %v",
					d.name, workers, r, err)
			}
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Errorf("%s(w=%d): cancellation took %v", d.name, workers, elapsed)
			}
		}
	}
}
