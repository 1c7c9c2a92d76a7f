package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// trapPos is a uniform tree whose Position methods panic at one chosen
// node. The trap coordinates (depth-from-root, child index at that depth)
// let tests plant the bomb on the phase-1 spine (index 0, hit by the
// joining owner) or on a speculative sibling (index > 0, often hit by a
// helper worker — the case that would crash the process without recover).
type trapPos struct {
	trap     *trapSpec
	depth    int // distance from the root
	index    int // child index within the parent
	maxDepth int
	fanout   int
}

type trapSpec struct {
	depth   int // node depth at which to detonate
	index   int // child index at that depth
	inEval  bool
	tripped atomic.Bool
}

func (p *trapPos) armed() bool {
	return p.depth == p.trap.depth && p.index == p.trap.index
}

func (p *trapPos) Moves() []Position {
	if p.armed() && !p.trap.inEval {
		p.trap.tripped.Store(true)
		panic(fmt.Sprintf("trap: Moves at depth %d index %d", p.depth, p.index))
	}
	if p.depth == p.maxDepth {
		return nil
	}
	out := make([]Position, p.fanout)
	for i := range out {
		out[i] = &trapPos{
			trap: p.trap, depth: p.depth + 1, index: i,
			maxDepth: p.maxDepth, fanout: p.fanout,
		}
	}
	return out
}

func (p *trapPos) Evaluate() int32 {
	if p.armed() && p.trap.inEval {
		p.trap.tripped.Store(true)
		panic(fmt.Sprintf("trap: Evaluate at depth %d index %d", p.depth, p.index))
	}
	return int32(p.depth - p.index)
}

// runTrapped runs one pooled search over a booby-trapped tree under a
// watchdog: a panic that escapes a worker goroutine would abort the whole
// test process, and a protocol bug that loses a join shows up as a hang.
func runTrapped(t *testing.T, spec *trapSpec, depth, workers int) error {
	t.Helper()
	root := &trapPos{trap: spec, depth: 0, index: 0, maxDepth: depth, fanout: 4}
	done := make(chan error, 1)
	go func() {
		_, err := SearchOpt(context.Background(), root, depth, SearchOptions{Workers: workers})
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatalf("watchdog: trapped search (depth %d, workers %d) did not return", depth, workers)
		return nil
	}
}

// TestSearchPanicIsolated plants a panic at every depth of the tree, on
// both the spine (index 0) and a speculative sibling (index 2), in both
// Moves and Evaluate, across worker counts. Every case must return
// ErrSearchPanic — not crash, not hang, not silently succeed.
func TestSearchPanicIsolated(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		for depth := 3; depth <= 7; depth++ {
			for _, trapDepth := range []int{1, depth - 1, depth} {
				for _, trapIdx := range []int{0, 2} {
					for _, inEval := range []bool{false, true} {
						if inEval && trapDepth != depth {
							continue // Evaluate only runs at the horizon
						}
						name := fmt.Sprintf("w%d/d%d/trap%d.%d/eval=%v",
							workers, depth, trapDepth, trapIdx, inEval)
						t.Run(name, func(t *testing.T) {
							spec := &trapSpec{depth: trapDepth, index: trapIdx, inEval: inEval}
							err := runTrapped(t, spec, depth, workers)
							if !spec.tripped.Load() {
								t.Skip("trap not reached (pruned subtree)")
							}
							if !errors.Is(err, ErrSearchPanic) {
								t.Fatalf("want ErrSearchPanic, got %v", err)
							}
						})
					}
				}
			}
		}
	}
}

// TestSearchPanicMessage pins that the recovered value survives into the
// returned error, so a user debugging their Position sees the panic text.
func TestSearchPanicMessage(t *testing.T) {
	spec := &trapSpec{depth: 2, index: 0}
	err := runTrapped(t, spec, 4, 2)
	if err == nil || !errors.Is(err, ErrSearchPanic) {
		t.Fatalf("want wrapped ErrSearchPanic, got %v", err)
	}
	want := "trap: Moves at depth 2 index 0"
	if got := err.Error(); !strings.Contains(got, want) {
		t.Fatalf("error %q does not carry the panic value %q", got, want)
	}
}

// TestSearchPanicDrivers: the drivers run on the same pool as SearchOpt,
// so a panicking Position surfaces from each of them as ErrSearchPanic
// with a zero Result, whether it fires on the spine or in a stolen task.
func TestSearchPanicDrivers(t *testing.T) {
	drivers := map[string]func(Position, SearchOptions) (Result, error){
		"SearchIterative": func(p Position, opt SearchOptions) (Result, error) {
			r, _, err := SearchIterative(context.Background(), p, 5, opt)
			return r, err
		},
		"MTDF": func(p Position, opt SearchOptions) (Result, error) {
			return MTDF(context.Background(), p, 5, 0, opt)
		},
		"SearchPVS": func(p Position, opt SearchOptions) (Result, error) {
			return SearchPVS(context.Background(), p, 5, opt)
		},
	}
	for name, run := range drivers {
		for _, workers := range []int{1, 4} {
			for _, trapIdx := range []int{0, 1} {
				spec := &trapSpec{depth: 1, index: trapIdx}
				root := &trapPos{trap: spec, depth: 0, index: 0, maxDepth: 5, fanout: 4}
				r, err := run(root, SearchOptions{Workers: workers})
				if !spec.tripped.Load() {
					continue // a zero-window pass may cut off before the trap
				}
				if !errors.Is(err, ErrSearchPanic) || r != (Result{}) {
					t.Errorf("%s(w=%d, trap index %d): want zero Result and ErrSearchPanic, got %+v, %v",
						name, workers, trapIdx, r, err)
				}
			}
		}
	}
}

// TestNoPanicNoError is the control: the same tree with the trap placed
// outside the reachable coordinate space searches cleanly.
func TestNoPanicNoError(t *testing.T) {
	spec := &trapSpec{depth: -1, index: -1}
	root := &trapPos{trap: spec, depth: 0, index: 0, maxDepth: 6, fanout: 4}
	r, err := SearchOpt(context.Background(), root, 6, SearchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	seq := Search(root, 6)
	if r.Value != seq.Value {
		t.Fatalf("parallel %d != sequential %d", r.Value, seq.Value)
	}
}
