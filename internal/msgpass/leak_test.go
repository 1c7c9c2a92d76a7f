package msgpass

import (
	"runtime"
	"testing"
	"time"

	"gametree/internal/tree"
)

// TestEvaluateLeavesNoGoroutines pins the machine's shutdown: once
// Evaluate or EvaluateAlphaBeta returns, every processor goroutine it
// started has exited — with one processor per level, with zones (p=1 and
// p=3), and with synthetic per-expansion work keeping processors busy
// when the root value arrives. A run that never halts its mailboxes
// either hangs (caught by the watchdog) or leaks its processors (caught
// by the goroutine count).
func TestEvaluateLeavesNoGoroutines(t *testing.T) {
	nor := tree.WorstCaseNOR(2, 10, 1)
	mm := tree.WorstOrderedMinMax(2, 8, 1)
	cases := []struct {
		name string
		run  func() (Metrics, error)
		want int32
	}{
		{"solve/per-level", func() (Metrics, error) { return Evaluate(nor, Options{}) }, nor.Evaluate()},
		{"solve/p1", func() (Metrics, error) { return Evaluate(nor, Options{Processors: 1}) }, nor.Evaluate()},
		{"solve/p3", func() (Metrics, error) { return Evaluate(nor, Options{Processors: 3}) }, nor.Evaluate()},
		{"solve/p3-work", func() (Metrics, error) {
			return Evaluate(nor, Options{Processors: 3, WorkPerExpansion: 2000})
		}, nor.Evaluate()},
		{"alphabeta/per-level", func() (Metrics, error) { return EvaluateAlphaBeta(mm, Options{}) }, mm.Evaluate()},
		{"alphabeta/p1", func() (Metrics, error) { return EvaluateAlphaBeta(mm, Options{Processors: 1}) }, mm.Evaluate()},
		{"alphabeta/p3-work", func() (Metrics, error) {
			return EvaluateAlphaBeta(mm, Options{Processors: 3, WorkPerExpansion: 2000})
		}, mm.Evaluate()},
	}
	for _, c := range cases {
		ok := t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			done := make(chan Metrics, 1)
			go func() {
				m, err := c.run()
				if err != nil {
					t.Error(err)
				}
				done <- m
			}()
			select {
			case m := <-done:
				if m.Value != c.want {
					t.Fatalf("value %d, want %d", m.Value, c.want)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("run did not return (watchdog fired)")
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
		})
		if !ok {
			break // a hung or leaking run would poison the next baseline
		}
	}
}
