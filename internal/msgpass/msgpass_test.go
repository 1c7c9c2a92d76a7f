package msgpass

import (
	"fmt"
	"math/rand"
	"testing"

	"gametree/internal/bounds"
	"gametree/internal/core"
	"gametree/internal/tree"
)

func TestCorrectValueRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(9)
		p := []float64{0.3, 0.5, 0.618}[rng.Intn(3)]
		tr := tree.IIDNor(2, n, p, rng.Int63())
		want := tr.Evaluate()
		m, err := Evaluate(tr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if m.Value != want {
			t.Fatalf("trial %d (n=%d): got %d, want %d", trial, n, m.Value, want)
		}
		if m.Processors != n+1 {
			t.Fatalf("trial %d: %d processors, want %d", trial, m.Processors, n+1)
		}
	}
}

func TestCorrectValueAdversarialTrees(t *testing.T) {
	for n := 1; n <= 10; n++ {
		for _, rv := range []int32{0, 1} {
			for _, gen := range []func(int, int, int32) *tree.Tree{tree.WorstCaseNOR, tree.BestCaseNOR} {
				tr := gen(2, n, rv)
				m, err := Evaluate(tr, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if m.Value != rv {
					t.Fatalf("n=%d rv=%d: got %d", n, rv, m.Value)
				}
			}
		}
	}
}

func TestZonesFixedProcessorCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(6)
		tr := tree.IIDNor(2, n, 0.5, rng.Int63())
		want := tr.Evaluate()
		for _, procs := range []int{1, 2, 3, n + 1, 2 * (n + 1)} {
			m, err := Evaluate(tr, Options{Processors: procs})
			if err != nil {
				t.Fatal(err)
			}
			if m.Value != want {
				t.Fatalf("trial %d procs=%d: got %d, want %d", trial, procs, m.Value, want)
			}
			if procs <= n+1 && m.Processors != procs {
				t.Fatalf("trial %d: reported %d processors, want %d", trial, m.Processors, procs)
			}
		}
	}
}

func TestSingleLeaf(t *testing.T) {
	for _, v := range []int32{0, 1} {
		tr := tree.FromNested(tree.NOR, int(v))
		m, err := Evaluate(tr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if m.Value != v || m.Expansions != 1 {
			t.Errorf("leaf %d: %+v", v, m)
		}
	}
}

func TestRejectsNonBinaryAndMinMax(t *testing.T) {
	if _, err := Evaluate(tree.IIDNor(3, 2, 0.5, 1), Options{}); err == nil {
		t.Error("ternary tree accepted")
	}
	if _, err := Evaluate(tree.IIDMinMax(2, 2, 0, 5, 1), Options{}); err == nil {
		t.Error("MinMax tree accepted")
	}
}

// The implementation should not expand wildly more nodes than the
// node-expansion simulator's width-1 run: Section 7 argues the traversal
// delays fold into the Proposition 6 counting, so total work stays within
// a constant factor of N-Parallel SOLVE's work (which itself is within a
// constant of sequential work by Corollary 1's analogue).
func TestWorkWithinConstantOfSimulator(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.Intn(5)
		tr := tree.IIDNor(2, n, 0.618, rng.Int63())
		sim, err := core.NParallelSolve(tr, 1, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		m, err := Evaluate(tr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if m.Expansions > 4*sim.Work+16 {
			t.Errorf("trial %d (n=%d): msgpass expanded %d, simulator %d",
				trial, n, m.Expansions, sim.Work)
		}
	}
}

func TestMessagesCounted(t *testing.T) {
	tr := tree.WorstCaseNOR(2, 6, 1)
	m, err := Evaluate(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Messages <= 0 || m.Expansions <= 0 {
		t.Errorf("no accounting: %+v", m)
	}
}

func TestSyntheticWorkStillCorrect(t *testing.T) {
	tr := tree.WorstCaseNOR(2, 7, 1)
	m, err := Evaluate(tr, Options{WorkPerExpansion: 200})
	if err != nil {
		t.Fatal(err)
	}
	if m.Value != 1 {
		t.Errorf("value %d", m.Value)
	}
}

func TestManySeedsStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 150; trial++ {
		n := rng.Intn(11)
		tr := tree.IIDNor(2, n, rng.Float64(), rng.Int63())
		want := tr.Evaluate()
		procs := 1 + rng.Intn(n+2)
		m, err := Evaluate(tr, Options{Processors: procs})
		if err != nil {
			t.Fatal(err)
		}
		if m.Value != want {
			t.Fatalf("trial %d n=%d procs=%d: got %d want %d", trial, n, procs, m.Value, want)
		}
	}
}

// Binarization extends the Section 7 machine to arbitrary branching
// factors: binarize the d-ary tree, run the machine, compare values.
func TestBinarizedDaryTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		d := 3 + rng.Intn(3)
		n := rng.Intn(4)
		tr := tree.IIDNor(d, n, 0.4, rng.Int63())
		bin := tree.BinarizeNOR(tr)
		m, err := Evaluate(bin, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if m.Value != tr.Evaluate() {
			t.Fatalf("trial %d (d=%d): msgpass on binarized tree gave %d, want %d",
				trial, d, m.Value, tr.Evaluate())
		}
	}
}

func TestMessageTypeAccounting(t *testing.T) {
	tr := tree.IIDNor(2, 8, 0.382, 3)
	m, err := Evaluate(tr, Options{Processors: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, c := range m.ByType {
		sum += c
	}
	if sum != m.Messages {
		t.Errorf("type counts sum to %d, total %d", sum, m.Messages)
	}
	// A multiplexed run exercises every message type of Section 7.
	for i, name := range []string{"S-SOLVE*", "P-SOLVE*", "P-SOLVE**", "P-SOLVE***", "val"} {
		if m.ByType[i] == 0 {
			t.Errorf("message type %s never sent", name)
		}
	}
}

// TestOneProcessorRepeats: with one processor nothing races, so 20 runs
// of either machine on one tree give one expansion count and one message
// count. The processor stops when the root value is sent; before it did,
// work done between that send and the halt was counted by chance.
func TestOneProcessorRepeats(t *testing.T) {
	runs := 20
	if testing.Short() {
		runs = 5
	}
	type machine struct {
		name string
		tr   *tree.Tree
		eval func(*tree.Tree, Options) (Metrics, error)
	}
	var ms []machine
	for n := 10; n <= 14; n += 2 {
		ms = append(ms,
			machine{fmt.Sprintf("SOLVE B(2,%d)", n), tree.IIDNor(2, n, bounds.StationaryBias(2), 1989_05), Evaluate},
			machine{fmt.Sprintf("alpha-beta M(2,%d)", n), tree.IIDMinMax(2, n, -1_000_000, 1_000_000, 1989_05), EvaluateAlphaBeta})
	}
	for _, m := range ms {
		first, err := m.eval(m.tr, Options{Processors: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < runs; i++ {
			got, err := m.eval(m.tr, Options{Processors: 1})
			if err != nil {
				t.Fatal(err)
			}
			if got.Expansions != first.Expansions || got.Messages != first.Messages || got.Value != first.Value {
				t.Fatalf("%s run %d: %d expansions, %d messages, value %d; run 0: %d, %d, %d",
					m.name, i, got.Expansions, got.Messages, got.Value, first.Expansions, first.Messages, first.Value)
			}
		}
	}
}
