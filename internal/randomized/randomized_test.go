package randomized

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gametree/internal/core"
	"gametree/internal/tree"
)

// The value returned must equal the true value for every seed.
func TestValueIndependentOfSeed(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nor := tree.IIDNor(2+rng.Intn(2), rng.Intn(5), 0.5, rng.Int63())
		wantN := nor.Evaluate()
		if v, _ := RSequentialSolve(nor, seed); v != wantN {
			return false
		}
		mp, err := RParallelSolve(nor, 1, seed, core.Options{})
		if err != nil || mp.Value != wantN {
			return false
		}
		mm := tree.IIDMinMax(2+rng.Intn(2), rng.Intn(4), -50, 50, rng.Int63())
		wantM := mm.Evaluate()
		if v, _ := RSequentialAlphaBeta(mm, seed); v != wantM {
			return false
		}
		mp2, err := RParallelAlphaBeta(mm, 1, seed, core.Options{})
		return err == nil && mp2.Value == wantM
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// The lazy recursion and the permute-then-run form must agree in expected
// work (they are identical in distribution). Deterministic given the
// seeds, so no flakiness.
func TestLazyEqualsPermuteInExpectation(t *testing.T) {
	tr := tree.WorstCaseNOR(2, 6, 1)
	const trials = 400
	lazy := ExpectedWork(trials, 1000, func(seed int64) int64 {
		_, w := RSequentialSolve(tr, seed)
		return w
	})
	perm := ExpectedWork(trials, 5000, func(seed int64) int64 {
		m, err := RSequentialSolveViaPermute(tr, seed, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return m.Work
	})
	ratio := lazy / perm
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("lazy %.1f vs permute %.1f expected work (ratio %.3f)", lazy, perm, ratio)
	}
}

// Randomization must beat the deterministic worst case: on the worst-case
// instance, E[work] of R-Sequential SOLVE is strictly below evaluating
// everything (Saks–Wigderson: the randomized complexity of uniform
// AND/OR trees is o(number of leaves)).
func TestRandomizationBeatsWorstCase(t *testing.T) {
	tr := tree.WorstCaseNOR(2, 8, 1)
	full := int64(tr.Len())
	mean := ExpectedWork(200, 7, func(seed int64) int64 {
		_, w := RSequentialSolve(tr, seed)
		return w
	})
	if mean >= float64(full) {
		t.Errorf("mean randomized work %.1f not below full expansion %d", mean, full)
	}
	// It should in fact be well below: at most 95% of full for n=8.
	if mean > 0.95*float64(full) {
		t.Errorf("mean randomized work %.1f suspiciously close to full %d", mean, full)
	}
}

// Theorem 5's shape: R-Parallel SOLVE of width 1 needs fewer expected
// steps than R-Sequential SOLVE.
func TestRParallelExpectedSpeedup(t *testing.T) {
	tr := tree.WorstCaseNOR(2, 8, 1)
	const trials = 50
	seqMean := ExpectedWork(trials, 11, func(seed int64) int64 {
		_, w := RSequentialSolve(tr, seed)
		return w
	})
	parMean, err := ExpectedSteps(trials, 11, func(seed int64) (core.Metrics, error) {
		return RParallelSolve(tr, 1, seed, core.Options{})
	})
	if err != nil {
		t.Fatal(err)
	}
	speedup := seqMean / parMean
	if speedup < 1.5 {
		t.Errorf("expected speedup %.2f too small (seq %.1f, par %.1f)", speedup, seqMean, parMean)
	}
}

func TestRAlphaBetaExpectedSpeedup(t *testing.T) {
	tr := tree.WorstOrderedMinMax(2, 7, 3)
	const trials = 40
	seqMean := ExpectedWork(trials, 13, func(seed int64) int64 {
		_, w := RSequentialAlphaBeta(tr, seed)
		return w
	})
	parMean, err := ExpectedSteps(trials, 13, func(seed int64) (core.Metrics, error) {
		return RParallelAlphaBeta(tr, 1, seed, core.Options{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if speedup := seqMean / parMean; speedup < 1.5 {
		t.Errorf("expected alpha-beta speedup %.2f too small", speedup)
	}
}

func TestExpectedHelpersPanic(t *testing.T) {
	mustPanic := func(f func()) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		f()
	}
	mustPanic(func() { ExpectedWork(0, 1, func(int64) int64 { return 0 }) })
	mustPanic(func() {
		_, _ = ExpectedSteps(0, 1, func(int64) (core.Metrics, error) { return core.Metrics{}, nil })
	})
	nor := tree.IIDNor(2, 2, 0.5, 1)
	mm := tree.IIDMinMax(2, 2, 0, 5, 1)
	mustPanic(func() { RSequentialSolve(mm, 1) })
	mustPanic(func() { RSequentialAlphaBeta(nor, 1) })
}

func TestRScoutCorrectForEverySeed(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := tree.IIDMinMax(2+rng.Intn(3), rng.Intn(5), -100, 100, rng.Int63())
		v, leaves := RScout(tr, seed)
		// leaves counts evaluations, not distinct leaves: SCOUT's failed
		// tests re-search, so it can exceed NumLeaves (bounded by a
		// constant factor).
		return v == tr.Evaluate() && leaves >= 1 && leaves <= 4*int64(tr.NumLeaves())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// On worst-ordered instances the randomized SCOUT must beat deterministic
// alpha-beta in expectation (randomization defeats the adversarial order).
func TestRScoutBeatsWorstOrdering(t *testing.T) {
	tr := tree.WorstOrderedMinMax(2, 8, 5)
	det := float64(256) // all leaves: worst ordering defeats alpha-beta badly
	mean := ExpectedWork(100, 31, func(seed int64) int64 {
		_, l := RScout(tr, seed)
		return l
	})
	if mean >= det {
		t.Errorf("RScout mean %.1f not below full leaf count %v", mean, det)
	}
	if mean > 0.95*det {
		t.Errorf("RScout mean %.1f suspiciously close to full scan", mean)
	}
}

func TestRScoutPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	RScout(tree.IIDNor(2, 2, 0.5, 1), 1)
}
