package main

// Engine substrate benchmark → BENCH_engine.json.
//
// `gtbench -enginebench BENCH_engine.json` measures the game engine's
// execution substrates and appends one run to a machine-readable JSON
// trajectory (internal/benchfmt): machine info, the commit, and one
// record per configuration with ns/op, nodes/op, nodes/sec, allocs/op
// and bytes/op. Two workloads are measured:
//
//   - "mtree": the paper's worst-ordered M(4,8) (tree.WorstOrderedMinMax)
//     searched as a value game through tree.Pos, where alpha-beta prunes
//     little and nearly every interior node splits — the regime where
//     per-split scheduling overhead dominates, so the pooled-vs-sequential
//     difference is the scheduler's cost or gain. (Runs before this
//     workload timed a different synthetic tree under the name "tree";
//     the new name keeps gtstat from lining the two up.)
//   - "connect4": standard 7x6 Connect-4 at fixed depth — a real game
//     whose per-node cost (move generation, boxing) is the signal.
//
// Configurations: the search body on a bare searcher ("sequential") and
// on the work-stealing pool across a worker sweep ("pooled"), both on the
// same view of the position. Each run is stamped with
// the commit, UTC date, Go version and GOMAXPROCS and appended to the
// document's runs[] history (the latest run is mirrored at the top
// level for v1 consumers); regressions show up as a broken time series,
// and `gtstat` turns two points of it into a pass/fail verdict.

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"gametree/internal/benchfmt"
	"gametree/internal/engine"
	"gametree/internal/games"
	"gametree/internal/telemetry"
	"gametree/internal/tree"
)

// splitDense is the split-dense workload: the worst-ordered M(4,8), where
// every child improves on its elder brothers, so alpha-beta prunes little
// (46,493 of 65,536 leaves) and nearly every interior node above the
// sequential horizon splits.
func splitDense() engine.Position {
	return engine.NewNode(tree.Pos{T: tree.WorstOrderedMinMax(4, 8, 1)})
}

// measure times reps runs of search (after one untimed warm-up), with
// allocation counts from runtime.ReadMemStats deltas. Ops here are
// short (around a millisecond on the mtree workload), so the mean over
// reps is at the mercy of any scheduler hiccup landing in one rep;
// NsPerOp and the derived NodesPerSec therefore report the *median* rep
// — the gtstat gates compare medians, which stay put when one rep is
// perturbed. Nodes and allocation columns stay means over all reps.
func measure(workload, name string, workers, reps int, search func() (engine.Result, error)) (benchfmt.Item, error) {
	if _, err := search(); err != nil {
		return benchfmt.Item{}, fmt.Errorf("%s/%s: %w", workload, name, err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var nodes int64
	var value int32
	repNs := make([]float64, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		r, err := search()
		repNs[i] = float64(time.Since(start).Nanoseconds())
		if err != nil {
			return benchfmt.Item{}, fmt.Errorf("%s/%s: %w", workload, name, err)
		}
		nodes += r.Nodes
		value = r.Value
	}
	runtime.ReadMemStats(&after)
	sort.Float64s(repNs)
	medNs := repNs[reps/2]
	if reps%2 == 0 {
		medNs = (repNs[reps/2-1] + repNs[reps/2]) / 2
	}
	nodesPerOp := float64(nodes) / float64(reps)
	return benchfmt.Item{
		Workload:    workload,
		Name:        name,
		Workers:     workers,
		Reps:        reps,
		NsPerOp:     medNs,
		NodesPerOp:  nodesPerOp,
		NodesPerSec: nodesPerOp / (medNs / 1e9),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(reps),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(reps),
		Value:       value,
	}, nil
}

// benchWorkload measures the sequential search and the pooled worker
// sweep on one position. Both search the same view of it, so a position
// that implements MoveAppender recycles move buffers in every row and the
// pooled/sequential ratio compares schedulers, not allocation paths.
func benchWorkload(workload string, pos engine.Position, depth, reps int) ([]benchfmt.Item, error) {
	ctx := context.Background()
	maxWorkers := runtime.GOMAXPROCS(0)

	seq, err := measure(workload, "sequential", 0, reps, func() (engine.Result, error) {
		return engine.Search(pos, depth), nil
	})
	if err != nil {
		return nil, err
	}
	items := []benchfmt.Item{seq}

	// 8 workers is in the sweep even on narrower hosts — the scheduler
	// must survive oversubscription.
	workers := []int{1, 2, 4, 8}
	if maxWorkers != 1 && maxWorkers != 2 && maxWorkers != 4 && maxWorkers != 8 {
		workers = append(workers, maxWorkers)
	}
	for _, w := range workers {
		item, err := measure(workload, "pooled", w, reps, func() (engine.Result, error) {
			return engine.SearchOpt(ctx, pos, depth, engine.SearchOptions{Workers: w})
		})
		if err != nil {
			return nil, err
		}
		if item.Value != seq.Value {
			return nil, fmt.Errorf("%s/pooled(workers=%d): value %d disagrees with sequential %d",
				workload, w, item.Value, seq.Value)
		}
		item.SpeedupVsSequential = item.NodesPerSec / seq.NodesPerSec
		items = append(items, item)
	}
	return items, nil
}

// collectTelemetry runs one instrumented pooled search per configuration
// of interest on the session recorder and returns the resulting reports
// (counters plus the histogram quantiles — abort-drain latency, task run
// time, steal retries). These runs are untimed — the timed benchmark
// rows stay uninstrumented so the trajectory is not polluted by counter
// overhead. The recorder is Reset before each configuration so every
// report stands alone; the last configuration's counters are left live
// for the /metrics endpoint and -promout. When tracePath is non-empty
// the 4-way mtree run's split-point spans are written there as Chrome
// trace_event JSON (load via chrome://tracing or Perfetto).
func collectTelemetry(rec *telemetry.Recorder, depth int, tracePath string, deepProbe bool) ([]benchfmt.TelemetryEntry, error) {
	ctx := context.Background()
	maxWorkers := runtime.GOMAXPROCS(0)
	var entries []benchfmt.TelemetryEntry

	run := func(workload, name string, workers int, pos engine.Position, d int, table *engine.Table) error {
		rec.Reset()
		if _, err := engine.SearchOpt(ctx, pos, d,
			engine.SearchOptions{Table: table, Workers: workers, Telemetry: rec}); err != nil {
			return fmt.Errorf("telemetry %s/%s(workers=%d): %w", workload, name, workers, err)
		}
		entries = append(entries, benchfmt.TelemetryEntry{
			Workload: workload, Name: name, Workers: workers,
			Report: rec.Snapshot().Report(),
		})
		return nil
	}

	// Split-dense synthetic tree: a single-worker run (steal counters must
	// read zero there; it also pins that nested cutoffs fire with no
	// concurrency at all), then 4-way concurrency so steal and abort-drain
	// figures are populated even on narrow hosts.
	mtree := splitDense()
	if err := run("mtree", "pooled", 1, mtree, 8, nil); err != nil {
		return nil, err
	}
	if tracePath != "" {
		rec.EnableTrace(0)
	}
	concurrency := 4
	if maxWorkers > concurrency {
		concurrency = maxWorkers
	}
	if err := run("mtree", "pooled", concurrency, mtree, 8, nil); err != nil {
		return nil, err
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return nil, err
		}
		if err := rec.WriteTrace(f); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}

	// Real game with a shared transposition table: TT probe/hit/eviction
	// counters and the probe-depth histogram are the signal here.
	if err := run("connect4", "pooled_tt", maxWorkers,
		games.StandardConnect4(), depth, engine.NewTable(1<<18)); err != nil {
		return nil, err
	}

	// Deep probe: Connect-4 at depth 12, the E12f workload where splitting
	// on the spine alone showed abort_drain_ns n=0 and a 3000x task-size
	// skew — recursive splitting must show drains firing. Opt-in
	// (-deepprobe), not part of the CI smoke pass; the committed
	// BENCH_engine.json carries it under its own name so the depth-12
	// report is distinguishable from the depth-8 pooled_tt entry.
	if deepProbe {
		if err := run("connect4", "pooled_tt_deep", concurrency,
			games.StandardConnect4(), 12, engine.NewTable(1<<20)); err != nil {
			return nil, err
		}
	}
	return entries, nil
}

// runEngineBench measures both workloads and appends the run to the
// trajectory at path (creating the document if absent, upgrading a v1
// snapshot in place). The instrumented telemetry passes run on rec —
// shared with the -pprof /metrics endpoint — and, when tracePath is
// non-empty, also emit a Chrome trace_event file there.
func runEngineBench(path string, depth, reps int, tracePath string, rec *telemetry.Recorder, deepProbe bool) error {
	items, err := benchWorkload("mtree", splitDense(), 8, reps)
	if err != nil {
		return err
	}

	c4 := games.StandardConnect4()
	c4Items, err := benchWorkload("connect4", c4, depth, reps)
	if err != nil {
		return err
	}
	items = append(items, c4Items...)

	// A table configuration on the real game. Every node probes the table,
	// the root included, so re-searching one position over one table would
	// time a single root hit; each rep therefore gets a fresh table, sized
	// to the search (~20k nodes) so that allocating it stays under 1% of
	// the rep, and the row measures what the table saves within a search.
	maxWorkers := runtime.GOMAXPROCS(0)
	tt, err := measure("connect4", "pooled_tt", maxWorkers, reps, func() (engine.Result, error) {
		return engine.SearchOpt(context.Background(), c4, depth,
			engine.SearchOptions{Table: engine.NewTable(1 << 16), Workers: maxWorkers})
	})
	if err != nil {
		return err
	}
	if tt.Value != c4Items[0].Value {
		return fmt.Errorf("connect4/pooled_tt: value %d disagrees with sequential %d", tt.Value, c4Items[0].Value)
	}
	items = append(items, tt)

	entries, err := collectTelemetry(rec, depth, tracePath, deepProbe)
	if err != nil {
		return err
	}

	doc := &benchfmt.Doc{Schema: benchfmt.SchemaV2}
	if _, statErr := os.Stat(path); statErr == nil {
		// Append to the existing trajectory; a corrupt document is an
		// error, not a silent restart of the history.
		if doc, err = benchfmt.Load(path); err != nil {
			return err
		}
	}
	doc.Machine = benchfmt.Machine{
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	doc.Append(benchfmt.Run{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Commit:     vcsRevision(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: items,
		Telemetry:  entries,
	})
	return benchfmt.Write(path, doc)
}

// checkEngineBench validates a BENCH_engine.json document — the CI
// bench-smoke gate. It accepts schema v1 and v2, and asserts that the
// latest run parses, that every workload has a sequential baseline and
// at least one pooled row, and that single-worker telemetry saw no
// steals. The best-pooled/sequential throughput ratio on the split-dense
// "mtree" workload is reported, not gated: both rows search the same view
// of the tree, and a ~1ms search on a one-shot pool sits within runner
// noise of 1.0x on narrow hosts (as connect4 does).
func checkEngineBench(path string) error {
	doc, err := benchfmt.Load(path)
	if err != nil {
		return err
	}
	latest := doc.Latest()
	if latest == nil {
		return fmt.Errorf("%s: document has no runs", path)
	}
	seq := map[string]float64{}
	bestPooled := map[string]float64{}
	for _, it := range latest.Benchmarks {
		if it.NodesPerSec <= 0 {
			return fmt.Errorf("%s: %s/%s has non-positive nodes_per_sec", path, it.Workload, it.Name)
		}
		switch it.Name {
		case "sequential":
			seq[it.Workload] = it.NodesPerSec
		case "pooled":
			if it.NodesPerSec > bestPooled[it.Workload] {
				bestPooled[it.Workload] = it.NodesPerSec
			}
		}
	}
	for _, workload := range []string{"mtree", "connect4"} {
		if seq[workload] == 0 {
			return fmt.Errorf("%s: missing sequential baseline for workload %q", path, workload)
		}
		if bestPooled[workload] == 0 {
			return fmt.Errorf("%s: missing pooled rows for workload %q", path, workload)
		}
	}
	for _, te := range latest.Telemetry {
		if te.Workers == 1 && (te.Report.Steals != 0 || te.Report.StealAttempts != 0) {
			return fmt.Errorf("%s: single-worker telemetry reports steals (%d attempts, %d steals)",
				path, te.Report.StealAttempts, te.Report.Steals)
		}
	}
	fmt.Printf("checkbench %s: ok (%d runs, %d benchmark rows, %d telemetry entries, mtree pooled/seq %.2fx)\n",
		path, len(doc.Runs), len(latest.Benchmarks), len(latest.Telemetry), bestPooled["mtree"]/seq["mtree"])
	return nil
}

// vcsRevision digs the commit hash out of the build info; "unknown" when
// the binary was built without VCS stamping (e.g. plain `go run` in some
// configurations).
func vcsRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty && rev != "unknown" {
		rev += "-dirty"
	}
	return rev
}

// writeProm dumps the session recorder's Prometheus exposition to path —
// the same text /metrics serves, as a file artifact for CI.
func writeProm(path string, rec *telemetry.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteProm(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
