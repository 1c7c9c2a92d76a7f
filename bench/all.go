package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"gametree/internal/stats"
)

// provenance says where a result file's numbers came from.
type provenance struct {
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	Runs       int     `json:"runs"`
	W          int     `json:"w"`
	Loop       string  `json:"loop"`
	LoadAvg1   float64 `json:"load_avg_1m_at_start"`
	Started    string  `json:"started"`
}

// summary is one metric over the runs of an `all` invocation.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"` // one per run
}

type workloadResult struct {
	Why       string             `json:"why"`
	Ops       int                `json:"ops_per_round"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]summary `json:"per_layer"`
}

// resultFile is bench/out/result.json.
type resultFile struct {
	Provenance provenance                `json:"provenance"`
	Workloads  map[string]workloadResult `json:"workloads"`
}

func gitOutput(args ...string) (string, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", args...).Output()
	return strings.TrimSpace(string(out)), err == nil
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func gatherProvenance(seed int64, seconds, runs int) provenance {
	p := provenance{
		Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), CPUModel: cpuModel(), Seed: seed, Seconds: seconds, Runs: runs,
		W: wideWorkers(), Started: time.Now().UTC().Format(time.RFC3339),
		Loop: "closed: each caller sends its next op only after the previous answer is verified",
	}
	if sha, ok := gitOutput("rev-parse", "HEAD"); ok {
		p.Commit = sha
		if status, ok := gitOutput("status", "--porcelain"); ok {
			p.Dirty = status != ""
		}
	}
	p.LoadAvg1, _ = loadAverage()
	return p
}

// runChild runs one workload in a fresh process, so that peak RSS, heap
// and GC state of one workload never reach the next.
func runChild(self string, f runFlags, workloadName string, trace int) (runResult, error) {
	cmd := exec.Command(self, "--workload", workloadName, "--seed", fmt.Sprint(f.seed),
		"--seconds", fmt.Sprint(f.seconds), "--trace", fmt.Sprint(trace), "--out", f.out)
	if f.smoke {
		cmd.Args = append(cmd.Args, "--smoke")
	}
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return res, fmt.Errorf("%s --trace %d: %w", workloadName, trace, runErr)
		}
		return res, fmt.Errorf("%s --trace %d: no result line: %w", workloadName, trace, err)
	}
	return res, nil // a run with failed operations still reports them
}

func summarize(runs []runResult) map[string]summary {
	out := map[string]summary{}
	if len(runs) == 0 {
		return out
	}
	for name, first := range runs[0].Metrics {
		s := summary{Unit: first.Unit}
		for _, r := range runs {
			s.Values = append(s.Values, r.Metrics[name].Value)
		}
		s.Median = stats.Quantile(s.Values, 0.5)
		s.Q1 = stats.Quantile(s.Values, 0.25)
		s.Q3 = stats.Quantile(s.Values, 0.75)
		out[name] = s
	}
	return out
}

// cmdAll runs every workload end to end and traced, each in its own child
// process, prints the tables and writes result.json.
func cmdAll(args []string) int {
	fp, fs := newRunFlags("bench all")
	runs := fs.Int("runs", 1, "end-to-end runs per workload; the table shows their median and quartiles")
	if err := fs.Parse(args); err != nil || fs.NArg() > 0 || *runs < 1 {
		return 2
	}
	f := *fp
	if err := requireCores(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := os.MkdirAll(f.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	res := resultFile{Provenance: gatherProvenance(f.seed, f.seconds, *runs), Workloads: map[string]workloadResult{}}
	warnIfLoaded(res.Provenance.W)

	failed := false
	for _, w := range workloads {
		wr := workloadResult{Why: w.why, Ops: len(buildOps(w, f.seed, f.smoke))}
		var e2e []runResult
		for i := 0; i < *runs; i++ {
			r, err := runChild(self, f, w.name, 0)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			e2e = append(e2e, r)
			wr.Attempted += r.Attempted
			wr.Failed += r.Failed
		}
		layer, err := runChild(self, f, w.name, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		wr.Attempted += layer.Attempted
		wr.Failed += layer.Failed
		wr.EndToEnd = summarize(e2e)
		wr.PerLayer = summarize([]runResult{layer})
		res.Workloads[w.name] = wr
		failed = failed || wr.Failed > 0
	}

	printTable(os.Stdout, "End to end (median of runs; W workers, closed loop)", res, func(w workloadResult) map[string]summary { return w.EndToEnd })
	printTable(os.Stdout, "Per layer (traced run)", res, func(w workloadResult) map[string]summary { return w.PerLayer })
	for _, w := range workloads {
		wr := res.Workloads[w.name]
		fmt.Printf("%-14s attempted %d failed %d\n", w.name, wr.Attempted, wr.Failed)
	}

	data, err := json.MarshalIndent(res, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(f.out, "result.json"), append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: write result:", err)
		return 1
	}
	fmt.Printf("wrote %s and %d traces\n", filepath.Join(f.out, "result.json"), len(workloads))
	if failed {
		return 1
	}
	return 0
}

// printTable prints one row per metric, one column per workload.
func printTable(out *os.File, title string, res resultFile, pick func(workloadResult) map[string]summary) {
	t := stats.NewTable(title, append([]string{"metric", "unit"}, workloadNames()...)...)
	units := map[string]string{}
	for _, w := range res.Workloads {
		for name, s := range pick(w) {
			units[name] = s.Unit
		}
	}
	names := make([]string, 0, len(units))
	for name := range units {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		row := []any{name, units[name]}
		for _, w := range workloads {
			row = append(row, fmt.Sprintf("%.4g", pick(res.Workloads[w.name])[name].Median))
		}
		t.AddRow(row...)
	}
	if err := t.Render(out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	fmt.Fprintln(out)
}

// benchmarkFile is the part of BENCHMARK.json that compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// cmdCompare prints, per workload and end-to-end metric, both files'
// medians, the relative change and the bound from BENCHMARK.json, and
// exits 1 if B is worse than A beyond a bound or failed a larger share of
// its operations.
func cmdCompare(args []string) int {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	spec := fs.String("benchmark", "BENCHMARK.json", "the file the bounds are read from")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [--benchmark BENCHMARK.json] A.json B.json")
		return 2
	}
	var bf benchmarkFile
	var a, b resultFile
	for _, in := range []struct {
		path string
		into any
	}{{*spec, &bf}, {fs.Arg(0), &a}, {fs.Arg(1), &b}} {
		if err := readJSON(in.path, in.into); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
	}
	t := stats.NewTable(fmt.Sprintf("A = %s (%s)   B = %s (%s)", fs.Arg(0), shortCommit(a.Provenance), fs.Arg(1), shortCommit(b.Provenance)),
		"workload", "metric", "unit", "A", "B", "change", "bound", "verdict")
	worse := false
	for _, w := range workloads {
		wa, okA := a.Workloads[w.name]
		wb, okB := b.Workloads[w.name]
		if !okA || !okB {
			t.AddRow(w.name, "-", "-", "-", "-", "-", "-", "missing")
			worse = true
			continue
		}
		for _, m := range bf.EndToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			// change > 0 means B is worse, whichever way the metric points.
			change := ratio(sb.Median-sa.Median, sa.Median)
			if m.Better == "higher" {
				change = -change
			}
			verdict := "ok"
			switch {
			case change > m.Bound:
				verdict = "WORSE"
				worse = true
			case max(ratio(sa.Q3-sa.Q1, sa.Median), ratio(sb.Q3-sb.Q1, sb.Median)) > m.Bound:
				verdict = "unresolved: runs spread wider than the bound"
			}
			t.AddRow(w.name, m.Name, m.Unit, fmt.Sprintf("%.4g", sa.Median), fmt.Sprintf("%.4g", sb.Median),
				fmt.Sprintf("%+.1f%%", 100*change), fmt.Sprintf("%.0f%%", 100*m.Bound), verdict)
		}
		fa, fb := ratio(float64(wa.Failed), float64(wa.Attempted)), ratio(float64(wb.Failed), float64(wb.Attempted))
		if fb > fa {
			t.AddRow(w.name, "failed share", "share", fa, fb, "-", "0%", "WORSE")
			worse = true
		}
	}
	t.AddNote("change is signed so that + means B is worse")
	if err := t.Render(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	if worse {
		return 1
	}
	return 0
}

func shortCommit(p provenance) string {
	c := p.Commit
	if len(c) > 10 {
		c = c[:10]
	}
	if p.Dirty {
		c += "-dirty"
	}
	return c
}
