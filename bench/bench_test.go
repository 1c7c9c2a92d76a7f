package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestOpListsFollowTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := json.Marshal(buildOps(w, 7, false))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(buildOps(w, 7, false))
		c, _ := json.Marshal(buildOps(w, 8, false))
		if string(a) != string(b) {
			t.Errorf("%s: two op lists from seed 7 differ", w.name)
		}
		if string(a) == string(c) {
			t.Errorf("%s: seeds 7 and 8 give the same op list", w.name)
		}
		if got := len(buildOps(w, 7, false)); got != w.ops {
			t.Errorf("%s: %d ops, want %d", w.name, got, w.ops)
		}
	}
	tree, _ := findWorkload("lib_tree")
	ring, _ := findWorkload("ring_cold")
	if buildOps(tree, 1, false)[0].Pos == buildOps(ring, 1, false)[0].Pos {
		t.Error("lib_tree and ring_cold share positions under one seed")
	}
}

func TestRepeatsShareAKey(t *testing.T) {
	hot, _ := findWorkload("serve_hot")
	ops := buildOps(hot, 3, false)
	byKey := map[int]string{}
	repeats := 0
	for _, o := range ops {
		if pos, ok := byKey[o.Key]; ok {
			repeats++
			if pos != o.Pos {
				t.Fatalf("key %d names both %q and %q", o.Key, pos, o.Pos)
			}
		}
		byKey[o.Key] = o.Pos
	}
	if share := float64(repeats) / float64(len(ops)); share < 0.65 || share > 0.85 {
		t.Errorf("serve_hot: %.2f of requests repeat a key, want about 0.75", share)
	}
	if n := numKeys(ops); n != len(byKey) {
		t.Errorf("numKeys = %d, distinct keys = %d", n, len(byKey))
	}
}

func roundsWith(opsPerSec ...float64) []round {
	rs := make([]round, len(opsPerSec))
	for i, x := range opsPerSec {
		rs[i] = round{ok: int(x), wall: time.Second}
	}
	return rs
}

func TestOverRoundsTakesTheBetterQuartile(t *testing.T) {
	// 10, 20, 30, 40, 50: quartiles by linear interpolation are 20 and 40.
	rs := roundsWith(30, 10, 50, 20, 40)
	if got := overRounds(rs, higher, round.opsPerSec); got != 40 {
		t.Errorf("upper quartile = %v, want 40", got)
	}
	if got := overRounds(rs, lower, round.opsPerSec); got != 20 {
		t.Errorf("lower quartile = %v, want 20", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	r := round{samples: []sample{{ok: true, latMs: 1}, {ok: false, latMs: 99}, {ok: true, latMs: 3}}, ok: 2}
	if got := r.p50(); got != 2 {
		t.Errorf("p50 over the successful samples = %v, want 2", got)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	b := &spanBuf{spans: []span{
		{Name: "op", Start: at(0), End: at(10), Parent: -1},
		{Name: "call", Start: at(1), End: at(8), Parent: 0},
		{Name: "server.search", Start: at(3), End: at(8), Parent: 1},
		{Name: "verify", Start: at(8), End: at(9), Parent: 0},
	}}
	self := selfTimes([]*spanBuf{b})
	want := map[string]time.Duration{"op": 2 * time.Millisecond, "call": 2 * time.Millisecond,
		"server.search": 5 * time.Millisecond, "verify": time.Millisecond}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self time of %s = %v, want %v", name, self[name], d)
		}
	}
}

// benchmarkJSON is BENCHMARK.json as the contract shapes it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesTheCatalogue(t *testing.T) {
	b := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u, better string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if !unit.MatchString(u) {
			t.Errorf("%s: unit %q is outside the contract", n, u)
		}
		if better != "higher" && better != "lower" {
			t.Errorf("%s: better = %q", n, better)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q (or their reasons differ)", i, b.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: the reason must be one line of at most 200 characters", w.name)
		}
		check(w.name, "x", "lower")
	}

	if len(b.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the catalogue", len(b.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range endToEndMetrics {
		got := b.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("end-to-end %d: BENCHMARK.json has %v, the catalogue %v", i, got, m)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.name, got.Bound)
		}
		check(m.name, m.unit, m.better)
	}

	if len(b.PerLayer) != len(perLayerMetrics) || len(perLayerMetrics) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the catalogue (at most 128)", len(b.PerLayer), len(perLayerMetrics))
	}
	for i, m := range perLayerMetrics {
		got := b.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %v, the catalogue %v", i, got, m)
		}
		check(m.name, m.unit, m.better)
	}
}

func TestPerLayerMetricsNameALayerAndATarget(t *testing.T) {
	targets := map[string]bool{}
	for _, m := range endToEndMetrics {
		targets[m.name] = true
	}
	for _, m := range perLayerMetrics {
		if m.layer != "runtime" && m.layer != "bench" {
			if st, err := os.Stat(filepath.Join("..", "internal", m.layer)); err != nil || !st.IsDir() {
				t.Errorf("%s: layer %q is not a directory under internal/", m.name, m.layer)
			}
		}
		if !targets[m.moves] {
			t.Errorf("%s: %q is not an end-to-end metric", m.name, m.moves)
		}
		for _, on := range strings.Fields(m.on) {
			if _, ok := findWorkload(on); !ok && on != "all" {
				t.Errorf("%s: %q is not a workload", m.name, on)
			}
		}
		if m.on == "" {
			t.Errorf("%s: names no workload", m.name)
		}
	}
}

// TestSmokeRunEmitsEveryMetric runs all five workloads at 1/50 size, end
// to end and traced, and holds the output to BENCHMARK.json: every metric
// present, finite, with its unit; every answer right; a loadable trace.
func TestSmokeRunEmitsEveryMetric(t *testing.T) {
	b := readBenchmarkJSON(t)
	out := t.TempDir()
	for _, w := range workloads {
		f := runFlags{workload: w.name, seed: 5, smoke: true, out: out}
		e2e, err := runEndToEnd(w, f)
		if err != nil {
			t.Fatalf("%s end to end: %v", w.name, err)
		}
		layers, err := runTraced(w, f)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		for _, r := range []runResult{e2e, layers} {
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, r.Correct, r.Attempted, r.Failed)
			}
		}
		if len(e2e.Metrics) != len(b.EndToEnd) || len(layers.Metrics) != len(b.PerLayer) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics, BENCHMARK.json lists %d and %d",
				w.name, len(e2e.Metrics), len(layers.Metrics), len(b.EndToEnd), len(b.PerLayer))
		}
		for _, m := range b.EndToEnd {
			got, ok := e2e.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || !(got.Value > 0) || math.IsInf(got.Value, 0) {
				t.Errorf("%s: end-to-end %s = %+v (present %v), want a positive number in %s", w.name, m.Name, got, ok, m.Unit)
			}
		}
		for _, m := range b.PerLayer {
			got, ok := layers.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
				t.Errorf("%s: per-layer %s = %+v (present %v), want a finite number in %s", w.name, m.Name, got, ok, m.Unit)
			}
		}

		data, err := os.ReadFile(filepath.Join(out, w.name+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var trace struct {
			TraceEvents []traceEvent `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &trace); err != nil {
			t.Fatalf("%s: trace does not load: %v", w.name, err)
		}
		names := map[string]bool{}
		for _, ev := range trace.TraceEvents {
			names[ev.Name] = true
		}
		if !names["op"] || !names["verify"] || !(names["pool.search"] || names["http.roundtrip"]) {
			t.Errorf("%s: trace has spans %v, want op, verify and a call", w.name, names)
		}
	}
}

func TestWrongAnswerIsAFailedOperation(t *testing.T) {
	w, _ := findWorkload("lib_tree")
	s, err := setUp(w, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	s.expect[s.ops[0].Key].Store(12345) // no RandomTree value: they lie in [-1000, 1000]
	e, err := s.startEnv(s.wide())
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	r := s.runRound(e, s.ops, false)
	if r.failed != 1 || r.ok != len(s.ops)-1 || r.samples[0].ok {
		t.Errorf("failed=%d ok=%d of %d ops, want exactly the poisoned op to fail", r.failed, r.ok, len(s.ops))
	}
}

func TestCompareFlagsARegression(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opsPerSec float64, failed int) string {
		res := resultFile{Workloads: map[string]workloadResult{}}
		for _, w := range workloads {
			e2e := map[string]summary{}
			for _, m := range endToEndMetrics {
				e2e[m.name] = summary{Unit: m.unit, Median: 100, Q1: 99, Q3: 101}
			}
			e2e["ops_per_sec"] = summary{Unit: "op/s", Median: opsPerSec, Q1: opsPerSec, Q3: opsPerSec}
			res.Workloads[w.name] = workloadResult{Attempted: 1000, Failed: failed, EndToEnd: e2e}
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := filepath.Join("..", "BENCHMARK.json")
	base := write("a.json", 100, 0)
	for _, tc := range []struct {
		name string
		path string
		want int
	}{
		{"same", write("same.json", 100, 0), 0},
		{"inside the bound", write("near.json", 90, 0), 0},
		{"beyond the bound", write("slow.json", 60, 0), 1},
		{"more failures", write("fail.json", 100, 3), 1},
	} {
		if got := cmdCompare([]string{"--benchmark", spec, base, tc.path}); got != tc.want {
			t.Errorf("%s: compare exits %d, want %d", tc.name, got, tc.want)
		}
	}
}
