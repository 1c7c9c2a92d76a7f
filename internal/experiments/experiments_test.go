package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// The quick configuration must run every experiment end to end and produce
// well-formed tables. This is the integration test of the whole harness.
func TestSuiteQuick(t *testing.T) {
	cfg := Config{Quick: true}
	for _, e := range Suite() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables := e.Run(cfg)
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tb := range tables {
				if len(tb.Columns) == 0 || len(tb.Rows) == 0 {
					t.Errorf("%s: empty table %q", e.ID, tb.Title)
				}
				for _, r := range tb.Rows {
					if len(r) != len(tb.Columns) {
						t.Errorf("%s: ragged row in %q", e.ID, tb.Title)
					}
				}
				if !strings.HasPrefix(tb.Title, e.ID) {
					t.Errorf("%s: table title %q does not carry the experiment id", e.ID, tb.Title)
				}
				out := tb.String()
				if len(out) == 0 {
					t.Errorf("%s: empty render", e.ID)
				}
			}
		})
	}
}

func TestSuiteIDsUniqueAndOrdered(t *testing.T) {
	seen := map[string]bool{}
	for i, e := range Suite() {
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		want := "E" + strconv.Itoa(i+1)
		if e.ID != want {
			t.Errorf("experiment %d has id %s, want %s", i, e.ID, want)
		}
		if e.Claim == "" {
			t.Errorf("%s has no claim", e.ID)
		}
	}
	if len(seen) != 13 {
		t.Errorf("expected 13 experiments, got %d", len(seen))
	}
}

// Quantitative shape checks on quick runs: the headline speedups must
// actually materialize even at small sizes.
func TestShapesQuick(t *testing.T) {
	cfg := Config{Quick: true}

	// E2: on the worst-case family the width-1 speedup at the largest n
	// must exceed 2 (it is ~c(n+1) with c around 1/4 or better).
	tables := E2ParallelSolve(cfg)
	worst := tables[0]
	last := worst.Rows[len(worst.Rows)-1]
	sp, err := strconv.ParseFloat(last[3], 64)
	if err != nil {
		t.Fatalf("bad speedup cell %q", last[3])
	}
	if sp < 2 {
		t.Errorf("E2 worst-case speedup %.2f at top height too small", sp)
	}

	// E1: Team SOLVE speedup at max p must be well below p (sqrt scaling)
	// on the best-case (maximal-pruning) instance, the first table.
	t1 := E1TeamSolve(cfg)[0]
	lastRow := t1.Rows[len(t1.Rows)-1]
	p, _ := strconv.ParseFloat(lastRow[0], 64)
	sp1, err := strconv.ParseFloat(lastRow[2], 64)
	if err != nil {
		t.Fatalf("bad cell %q", lastRow[2])
	}
	if sp1 > 0.9*p {
		t.Errorf("E1 speedup %.2f at p=%v looks linear, expected sqrt-like", sp1, p)
	}
	if sp1 < 1 {
		t.Errorf("E1 speedup %.2f below 1", sp1)
	}
}

func TestConfigHelpers(t *testing.T) {
	var c Config
	if c.trials(7) != 7 || c.seed() == 0 || c.pick(10, 3) != 10 {
		t.Error("full defaults wrong")
	}
	q := Config{Quick: true, Seed: 5, Trials: 9}
	if q.trials(7) != 9 || q.seed() != 5 || q.pick(10, 3) != 3 {
		t.Error("quick overrides wrong")
	}
}
