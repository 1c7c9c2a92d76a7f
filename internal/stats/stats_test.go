package stats

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Errorf("n=%d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("mean=%v", w.Mean())
	}
	// Sample variance of this classic dataset is 32/7.
	if math.Abs(w.Var()-32.0/7.0) > 1e-12 {
		t.Errorf("var=%v", w.Var())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("min/max %v/%v", w.Min(), w.Max())
	}
	if w.CI95() <= 0 {
		t.Error("CI should be positive")
	}
	if !strings.Contains(w.String(), "mean=5") {
		t.Errorf("String(): %s", w.String())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.CI95() != 0 {
		t.Error("empty Welford should be all zeros")
	}
	w.Add(3)
	if w.Mean() != 3 || w.Var() != 0 {
		t.Error("single observation")
	}
}

// Property: Welford agrees with the two-pass formulas.
func TestWelfordAgainstTwoPass(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		xs := make([]float64, n)
		var w Welford
		for i := range xs {
			xs[i] = rng.NormFloat64()*10 + 5
			w.Add(xs[i])
		}
		var mean float64
		for _, x := range xs {
			mean += x
		}
		mean /= float64(n)
		var v float64
		for _, x := range xs {
			v += (x - mean) * (x - mean)
		}
		v /= float64(n - 1)
		return math.Abs(w.Mean()-mean) < 1e-9 && math.Abs(w.Var()-v) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuantile(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4},
	}
	for _, c := range cases {
		if got := Quantile(data, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
	// Input must not be modified.
	d := []float64{3, 1, 2}
	Quantile(d, 0.5)
	if d[0] != 3 || d[1] != 1 || d[2] != 2 {
		t.Error("Quantile modified its input")
	}
}

func TestLinearFit(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{3, 5, 7, 9} // y = 2x + 1
	s, b := LinearFit(x, y)
	if math.Abs(s-2) > 1e-12 || math.Abs(b-1) > 1e-12 {
		t.Errorf("fit %v, %v", s, b)
	}
}

func TestLogLogSlope(t *testing.T) {
	// y = x^0.5 exactly.
	x := []float64{1, 4, 16, 64, 256}
	y := make([]float64, len(x))
	for i := range x {
		y[i] = math.Sqrt(x[i])
	}
	if got := LogLogSlope(x, y); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("slope %v, want 0.5", got)
	}
}

func TestFitPanics(t *testing.T) {
	mustPanic := func(f func()) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		f()
	}
	mustPanic(func() { LinearFit([]float64{1}, []float64{1}) })
	mustPanic(func() { LinearFit([]float64{1, 1}, []float64{1, 2}) })
	mustPanic(func() { LogLogSlope([]float64{0, 1}, []float64{1, 1}) })
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("T1", "n", "speedup")
	tb.AddRow(4, 2.5)
	tb.AddRow(8, 5.25)
	tb.AddNote("c = %.2f", 0.62)
	out := tb.String()
	for _, want := range []string{"T1", "n", "speedup", "2.5", "5.25", "note: c = 0.62", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	var buf bytes.Buffer
	if err := tb.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	csv := buf.String()
	if !strings.HasPrefix(csv, "n,speedup\n") || !strings.Contains(csv, "8,5.25") {
		t.Errorf("csv:\n%s", csv)
	}
}

func TestTrimFloat(t *testing.T) {
	tb := NewTable("", "x")
	tb.AddRow(2.0)
	tb.AddRow(2.5)
	tb.AddRow(0.12345)
	if tb.Rows[0][0] != "2" || tb.Rows[1][0] != "2.5" || tb.Rows[2][0] != "0.1235" {
		t.Errorf("rows: %v", tb.Rows)
	}
}

func TestRenderJSON(t *testing.T) {
	tb := NewTable("T2", "a", "b")
	tb.AddRow(1, 2.5)
	tb.AddNote("n")
	var buf bytes.Buffer
	if err := tb.RenderJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Title   string     `json:"title"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
		Notes   []string   `json:"notes"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Title != "T2" || len(decoded.Rows) != 1 || decoded.Rows[0][1] != "2.5" || decoded.Notes[0] != "n" {
		t.Errorf("decoded: %+v", decoded)
	}
}
