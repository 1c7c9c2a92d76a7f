// Proof-number solver modes of gtprove: -game solves one combinatorial
// game instance with sequential PN, PN² and pooled parallel PNS, and
// -bench runs the fixed instance suite into BENCH_prove.json (benchfmt
// v2 trajectory, same document discipline as gtbench).
package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"gametree/internal/benchfmt"
	"gametree/internal/engine"
	"gametree/internal/games"
	"gametree/internal/pns"
	"gametree/internal/tree"
)

// solveUsage is printed (with exit status 2) for an unknown game or a
// malformed instance spec — the caller mistyped, so the contract is the
// conventional flag-error status, not a runtime failure.
func solveUsage(w *os.File) {
	fmt.Fprint(w, `gtprove -game <game> -pos <instance> [-workers N] [-pn2 B] [-maxnodes N]

games and instance specs:
  nim     comma-separated heap sizes, e.g. -pos 3,5,7
  kayles  comma-separated row lengths, e.g. -pos 5,6
  andor   depth,branch[,bias[,seed]] for an i.i.d. random AND/OR
          (NOR) search space, e.g. -pos 6,3,0.4,1

gtprove -bench [-out BENCH_prove.json] [-reps N]
  runs the proof-number benchmark suite: sequential PN, PN² and pooled
  parallel PNS at 1, 2 and 4 workers, appended to the benchfmt v2
  trajectory document.
`)
}

// specErr reports a bad -game/-pos spec: usage on stderr, exit 2.
func specErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gtprove: "+format+"\n\n", args...)
	solveUsage(os.Stderr)
	os.Exit(2)
}

// parseInstance turns (game, spec) into a solvable position plus an
// oracle verdict (1 = first player wins, 0 = loses): Sprague-Grundy
// theory for nim and kayles, direct NOR evaluation of the materialized
// arena for andor.
func parseInstance(game, spec string) (engine.Position, int) {
	if spec == "" {
		specErr("-pos is required with -game")
	}
	ints := func(max int) []int {
		parts := strings.FieldsFunc(spec, func(r rune) bool { return r == ',' || r == ' ' })
		vals := make([]int, 0, len(parts))
		for _, p := range parts {
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil || v < 0 || v > max {
				specErr("bad %s instance %q: want integers in 0..%d", game, spec, max)
			}
			vals = append(vals, v)
		}
		if len(vals) == 0 {
			specErr("empty %s instance", game)
		}
		return vals
	}
	switch game {
	case "nim":
		heaps := ints(64)
		pos := games.NewNim(heaps...)
		oracle := 0
		if pos.XorValue() != 0 {
			oracle = 1
		}
		return pos, oracle
	case "kayles":
		rows := ints(64)
		pos := games.NewKayles(rows...)
		oracle := 0
		if pos.GrundyValue() != 0 {
			oracle = 1
		}
		return pos, oracle
	case "andor":
		parts := strings.Split(spec, ",")
		if len(parts) < 2 || len(parts) > 4 {
			specErr("bad andor instance %q: want depth,branch[,bias[,seed]]", spec)
		}
		depth, err1 := strconv.Atoi(strings.TrimSpace(parts[0]))
		branch, err2 := strconv.Atoi(strings.TrimSpace(parts[1]))
		bias, seed := 0.4, int64(1)
		var err3, err4 error
		if len(parts) > 2 {
			bias, err3 = strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
		}
		if len(parts) > 3 {
			seed, err4 = strconv.ParseInt(strings.TrimSpace(parts[3]), 10, 64)
		}
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil ||
			depth < 1 || depth > 16 || branch < 1 || branch > 8 || bias < 0 || bias > 1 {
			specErr("bad andor instance %q: want depth,branch[,bias[,seed]]", spec)
		}
		t := tree.IIDNor(branch, depth, bias, seed)
		pos := engine.NewNode(tree.Pos{T: t})
		// The arena tree is fully materialized, so the exact game value
		// doubles as the oracle: the mover wins iff the NOR root is 0.
		oracle := 0
		if t.Evaluate() == 0 {
			oracle = 1
		}
		return pos, oracle
	default:
		specErr("unknown game %q", game)
		panic("unreachable")
	}
}

// solveGame is the -game mode: solve one instance three ways, check the
// verdicts agree (and match the oracle when there is one), and print a
// small comparison table.
func solveGame(game, spec string, workers int, pn2Budget, maxNodes int64) error {
	pos, oracle := parseInstance(game, spec)
	fmt.Printf("instance: %s %s\n", game, spec)
	ctx := context.Background()
	table := engine.NewTable(1 << 16)

	type row struct {
		name string
		res  pns.Result
		dur  time.Duration
	}
	var rows []row
	run := func(name string, f func() (pns.Result, error)) error {
		start := time.Now()
		res, err := f()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rows = append(rows, row{name, res, time.Since(start)})
		return nil
	}
	// Each run gets its own table so no variant inherits another's
	// proofs; the shared-table speedup is measured separately in -bench.
	if err := run("pn_seq", func() (pns.Result, error) {
		return pns.New(pos, pns.Options{Table: engine.NewTable(1 << 16), MaxNodes: maxNodes}).Solve(ctx)
	}); err != nil {
		return err
	}
	if err := run("pn2", func() (pns.Result, error) {
		return pns.New(pos, pns.Options{Table: engine.NewTable(1 << 16), MaxNodes: maxNodes, PN2Budget: pn2Budget}).Solve(ctx)
	}); err != nil {
		return err
	}
	pool := engine.NewPool(workers, table, nil)
	defer pool.Close()
	if err := run(fmt.Sprintf("pns_pooled(w=%d)", workers), func() (pns.Result, error) {
		return pns.New(pos, pns.Options{Table: table, MaxNodes: maxNodes}).SolveParallel(ctx, pool)
	}); err != nil {
		return err
	}

	for _, r := range rows {
		fmt.Printf("%-16s %-10s pn=%-6s dn=%-6s %8d nodes %7d expands  %s\n",
			r.name, r.res.Verdict, pnString(r.res.PN), pnString(r.res.DN),
			r.res.Nodes, r.res.Expands, r.dur.Round(time.Microsecond))
	}
	for _, r := range rows {
		if r.res.Verdict != rows[0].res.Verdict {
			return fmt.Errorf("verdict disagreement: %s says %s, %s says %s",
				rows[0].name, rows[0].res.Verdict, r.name, r.res.Verdict)
		}
	}
	want := pns.Disproven
	if oracle == 1 {
		want = pns.Proven
	}
	if got := rows[0].res.Verdict; got != pns.Unknown && got != want {
		return fmt.Errorf("oracle disagreement: oracle says %s, solver says %s", want, got)
	}
	fmt.Printf("oracle: %s (agrees)\n", want)
	return nil
}

func pnString(v uint32) string {
	if v == pns.Inf {
		return "inf"
	}
	return strconv.FormatUint(uint64(v), 10)
}

// benchInstance is one suite entry: big enough that the pooled variant
// has work to distribute, small enough for CI.
type benchInstance struct {
	workload string
	pos      engine.Position
}

func benchSuite() []benchInstance {
	return []benchInstance{
		{"nim", games.NewNim(6, 7, 8, 9)},
		{"kayles", games.NewKayles(7, 6, 5)},
		{"andor", engine.NewNode(tree.Pos{T: tree.IIDNor(3, 11, 0.38, 7)})},
	}
}

// solveBench is the -bench mode. For each suite instance it measures
// sequential PN, PN² and pooled PNS at 1, 2 and 4 workers — every rep on
// a fresh transposition table so rows measure cold solves — and appends
// one run to the benchfmt v2 document at path. A final warm-table rep
// per workload is reported on stdout only (TT sharing effect, not a
// trajectory row: it measures the table, not the solver).
func solveBench(path string, reps int) error {
	ctx := context.Background()
	var items []benchfmt.Item

	measure := func(workload, name string, workers int, f func() (pns.Result, error)) (benchfmt.Item, error) {
		if _, err := f(); err != nil { // warm-up rep, untimed
			return benchfmt.Item{}, fmt.Errorf("%s/%s: %w", workload, name, err)
		}
		var nodes int64
		var verdict pns.Verdict
		start := time.Now()
		for i := 0; i < reps; i++ {
			res, err := f()
			if err != nil {
				return benchfmt.Item{}, fmt.Errorf("%s/%s: %w", workload, name, err)
			}
			if res.Verdict == pns.Unknown {
				return benchfmt.Item{}, fmt.Errorf("%s/%s: solve did not finish", workload, name)
			}
			nodes += res.Nodes
			verdict = res.Verdict
		}
		elapsed := time.Since(start)
		nsPerOp := float64(elapsed.Nanoseconds()) / float64(reps)
		nodesPerOp := float64(nodes) / float64(reps)
		it := benchfmt.Item{
			Workload:    workload,
			Name:        name,
			Workers:     workers,
			Reps:        reps,
			NsPerOp:     nsPerOp,
			NodesPerOp:  nodesPerOp,
			NodesPerSec: nodesPerOp / (nsPerOp / 1e9),
			Value:       int32(verdict),
		}
		fmt.Printf("%-8s %-12s w=%d  %10.0f nodes/op  %12.0f nodes/sec  %s\n",
			workload, name, workers, it.NodesPerOp, it.NodesPerSec, verdict)
		return it, nil
	}

	for _, bi := range benchSuite() {
		seq, err := measure(bi.workload, "pn_seq", 0, func() (pns.Result, error) {
			return pns.New(bi.pos, pns.Options{Table: engine.NewTable(1 << 16)}).Solve(ctx)
		})
		if err != nil {
			return err
		}
		items = append(items, seq)

		pn2, err := measure(bi.workload, "pn2", 0, func() (pns.Result, error) {
			return pns.New(bi.pos, pns.Options{Table: engine.NewTable(1 << 16), PN2Budget: 64}).Solve(ctx)
		})
		if err != nil {
			return err
		}
		pn2.SpeedupVsSequential = pn2.NodesPerSec / seq.NodesPerSec
		items = append(items, pn2)

		for _, w := range []int{1, 2, 4} {
			w := w
			it, err := measure(bi.workload, "pns_pooled", w, func() (pns.Result, error) {
				table := engine.NewTable(1 << 16)
				pool := engine.NewPool(w, table, nil)
				defer pool.Close()
				return pns.New(bi.pos, pns.Options{Table: table}).SolveParallel(ctx, pool)
			})
			if err != nil {
				return err
			}
			it.SpeedupVsSequential = it.NodesPerSec / seq.NodesPerSec
			items = append(items, it)
		}

		// Warm-table effect, stdout only: re-solving over a table that
		// already holds the proof touches almost nothing.
		table := engine.NewTable(1 << 16)
		if _, err := pns.New(bi.pos, pns.Options{Table: table}).Solve(ctx); err != nil {
			return err
		}
		warm, err := pns.New(bi.pos, pns.Options{Table: table}).Solve(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("%-8s warm-table resolve: %d expands (cold %0.f nodes/op)\n",
			bi.workload, warm.Expands, seq.NodesPerOp)
	}

	doc := &benchfmt.Doc{Schema: benchfmt.SchemaV2}
	if _, statErr := os.Stat(path); statErr == nil {
		var err error
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
		Commit:     proveVCSRevision(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: items,
	})
	if err := benchfmt.Write(path, doc); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d rows)\n", path, len(items))
	return nil
}

func proveVCSRevision() string {
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
