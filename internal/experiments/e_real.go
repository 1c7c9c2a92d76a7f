package experiments

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"time"

	"gametree/internal/alphabeta"
	"gametree/internal/bounds"
	"gametree/internal/core"
	"gametree/internal/engine"
	"gametree/internal/games"
	"gametree/internal/msgpass"
	"gametree/internal/stats"
	"gametree/internal/tree"
)

// E12MessagePassing — Section 7: the message-passing implementation of
// N-Parallel SOLVE of width 1 computes the correct value with work within
// a constant factor of the simulator, and the same cascade idea in the
// goroutine engine yields real wall-clock speedup on multicore hardware.
func E12MessagePassing(cfg Config) []*stats.Table {
	var tables []*stats.Table

	tb := stats.NewTable("E12a Section 7 message-passing vs node-expansion simulator, B(2,n)",
		"n", "kind", "sim P*(T) work", "msgpass exp (per-level)", "msgs", "msgpass exp (1 proc, zones)", "msgs(1)", "value ok")
	for _, kind := range []string{"worst", "iid-critical"} {
		for n := 6; n <= cfg.pick(14, 8); n += 2 {
			tr := norInstance(kind, 2, n, cfg.seed())
			sim := mustNSolve(tr, 1, core.Options{})
			m, err := msgpass.Evaluate(tr, msgpass.Options{})
			if err != nil {
				panic(err)
			}
			m1, err := msgpass.Evaluate(tr, msgpass.Options{Processors: 1})
			if err != nil {
				panic(err)
			}
			tb.AddRow(n, kind, sim.Work, m.Expansions, m.Messages, m1.Expansions, m1.Messages,
				m.Value == tr.Evaluate() && m1.Value == tr.Evaluate())
		}
	}
	tb.AddNote("expansions stay within a small constant of the simulator's work (traversal delays fold into Prop. 6 counting)")
	tb.AddNote("with one multiplexing processor the cascade visits every level (many messages); with a goroutine per")
	tb.AddNote("level on this machine (GOMAXPROCS=%d) leading S-invocations often finish before deeper P-invocations are", runtime.GOMAXPROCS(0))
	tb.AddNote("scheduled, so fewer messages are needed — both schedules return the exact value")
	tables = append(tables, tb)

	// Wall-clock speedup of the message-passing machine itself, with
	// synthetic per-expansion work, 1 processor vs one per level.
	n := cfg.pick(12, 8)
	spin := cfg.pick(3000, 800)
	tr := tree.WorstCaseNOR(2, n, 1)
	tb2 := stats.NewTable("E12b msgpass wall-clock, worst-case B(2,"+strconv.Itoa(n)+"), "+
		strconv.Itoa(spin)+" spin/expansion",
		"processors", "time", "speedup vs p=1")
	var base time.Duration
	for _, p := range []int{1, 2, 4, n + 1} {
		start := time.Now()
		m, err := msgpass.Evaluate(tr, msgpass.Options{Processors: p, WorkPerExpansion: spin})
		el := time.Since(start)
		if err != nil || m.Value != 1 {
			panic(fmt.Sprintf("msgpass wall-clock run failed: %v %+v", err, m))
		}
		if p == 1 {
			base = el
		}
		tb2.AddRow(p, el.Round(time.Microsecond).String(), float64(base)/float64(el))
	}
	tables = append(tables, tb2)

	// Real-game engine: sequential vs parallel wall clock on Connect-4.
	depth := cfg.pick(9, 6)
	pos := games.StandardConnect4()
	tb3 := stats.NewTable("E12c goroutine engine on Connect-4 7x6, depth "+strconv.Itoa(depth),
		"workers", "nodes", "time", "speedup vs sequential")
	engine.Search(pos, depth) // warm-up: page in the search before timing
	start := time.Now()
	seq := engine.Search(pos, depth)
	seqTime := time.Since(start)
	tb3.AddRow("sequential", seq.Nodes, seqTime.Round(time.Millisecond).String(), 1.0)
	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		start = time.Now()
		par, err := engine.SearchOpt(context.Background(), pos, depth, engine.SearchOptions{Workers: w})
		el := time.Since(start)
		if err != nil {
			panic(err)
		}
		if par.Value != seq.Value {
			panic(fmt.Sprintf("engine value mismatch: %d vs %d", par.Value, seq.Value))
		}
		tb3.AddRow(w, par.Nodes, el.Round(time.Millisecond).String(), float64(seqTime)/float64(el))
	}
	tb3.AddNote("the classical root-split baseline of references [2,4] is retired; its last row is on file in EXPERIMENTS.md §E12c")
	tb3.AddNote("GOMAXPROCS=%d; on a single-CPU host the parallel cascade can only match the sequential wall", runtime.GOMAXPROCS(0))
	tb3.AddNote("clock (the value is still exact); on a multicore host the speculative siblings run concurrently")
	tb3.AddNote("and the wall clock drops while node counts rise slightly (speculation)")
	tables = append(tables, tb3)

	// The alpha-beta message-passing machine (the Section 7 construction
	// carried to MIN/MAX trees, which the paper only sketches).
	tb4 := stats.NewTable("E12d message-passing Parallel alpha-beta on M(2,n) i.i.d.",
		"n", "sequential AB leaves", "msgpass expansions", "messages", "value ok")
	for n := 6; n <= cfg.pick(12, 8); n += 2 {
		trm := tree.IIDMinMax(2, n, -1_000_000, 1_000_000, cfg.seed())
		ref := alphabeta.AlphaBeta(trm)
		m, err := msgpass.EvaluateAlphaBeta(trm, msgpass.Options{Processors: 1})
		if err != nil {
			panic(err)
		}
		tb4.AddRow(n, ref.Leaves, m.Expansions, m.Messages, m.Value == ref.Value)
	}
	tb4.AddNote("run with one multiplexing processor so the cascade is fully exercised; expansions include internal nodes and bounded speculation")
	tables = append(tables, tb4)

	// Baseline triangle: classical alpha-beta vs SCOUT vs SSS* (the
	// comparison behind the paper's reference [11]).
	tb5 := stats.NewTable("E12e sequential baselines: leaves evaluated on M(2,n)",
		"n", "ordering", "minimax", "alpha-beta", "SCOUT", "SSS*")
	for _, ord := range []string{"best", "random", "worst"} {
		for n := 6; n <= cfg.pick(12, 8); n += 3 {
			trm := minmaxInstance(ord, 2, n, cfg.seed())
			mm := alphabeta.Minimax(trm)
			ab := alphabeta.AlphaBeta(trm)
			sc := alphabeta.Scout(trm)
			ss := alphabeta.SSS(trm)
			tb5.AddRow(n, ord, mm.Leaves, ab.Leaves, sc.Leaves, ss.Leaves)
		}
	}
	tb5.AddNote("SSS* never exceeds alpha-beta (Stockman dominance); the gap is largest on worst-ordered trees")
	tables = append(tables, tb5)

	// The shipped engine on the paper's own instances, read as a game
	// through tree.Pos, next to the step model and the minimal tree.
	tb6 := stats.NewTable("E12h engine on M(d,n) vs Parallel alpha-beta steps and Knuth-Moore",
		"d", "n", "ordering", "Knuth-Moore", "AB leaves", "PAB steps w=1", "PAB steps w=2",
		"engine nodes W=1", "node overhead W=2", "scaling_x W=2")
	reps := cfg.pick(21, 3)
	for _, dn := range [][2]int{{2, cfg.pick(14, 8)}, {4, cfg.pick(8, 5)}} {
		d, n := dn[0], dn[1]
		for _, ord := range []string{"best", "random", "worst"} {
			trm := minmaxInstance(ord, d, n, cfg.seed())
			ab := alphabeta.AlphaBeta(trm)
			pos := engine.NewNode(tree.Pos{T: trm})
			nodes1, wall1 := medianSearch(pos, 1, n, reps, ab.Value)
			nodes2, wall2 := medianSearch(pos, 2, n, reps, ab.Value)
			tb6.AddRow(d, n, ord, bounds.KnuthMoore(d, n).String(), ab.Leaves,
				mustAB(trm, 1, core.Options{}).Steps, mustAB(trm, 2, core.Options{}).Steps,
				nodes1, nodes2/nodes1, float64(wall1)/float64(wall2))
		}
	}
	tb6.AddNote("engine: a resident pool searching to the tree's height; node overhead is mean nodes at W=2 over W=1,")
	tb6.AddNote("scaling_x the median wall clock at W=1 over W=2 (%d reps each); GOMAXPROCS=%d, NumCPU=%d",
		reps, runtime.GOMAXPROCS(0), runtime.NumCPU())
	tb6.AddNote("PAB: the step model's Parallel alpha-beta of width w (steps; width 0 is AB leaves)")
	tables = append(tables, tb6)
	return tables
}

// minmaxInstance returns the named member of M(d,n): best-ordered,
// worst-ordered or with i.i.d. leaves ("random").
func minmaxInstance(ordering string, d, n int, seed int64) *tree.Tree {
	switch ordering {
	case "best":
		return tree.BestOrderedMinMax(d, n, seed)
	case "worst":
		return tree.WorstOrderedMinMax(d, n, seed)
	}
	return tree.IIDMinMax(d, n, -1_000_000, 1_000_000, seed)
}

// medianSearch searches pos to depth reps times on a resident pool of w
// workers, after one untimed warm-up, and returns the mean node count and
// the median wall time. A value other than want panics.
func medianSearch(pos engine.Position, w, depth, reps int, want int32) (float64, time.Duration) {
	pool := engine.NewPool(w, nil, nil)
	defer pool.Close()
	var nodes int64
	walls := make([]time.Duration, reps)
	for i := -1; i < reps; i++ {
		start := time.Now()
		r, err := pool.Search(context.Background(), pos, depth)
		if err != nil || r.Value != want {
			panic(fmt.Sprintf("engine on M(d,n), W=%d: value %d (%v), want %d", w, r.Value, err, want))
		}
		if i >= 0 {
			walls[i] = time.Since(start)
			nodes += r.Nodes
		}
	}
	slices.Sort(walls)
	return float64(nodes) / float64(reps), walls[reps/2]
}

// E13Constant — Conclusion: "The provable constant c in Theorem 1 is
// rather poor. Some simulations we did indicate that a better constant is
// achievable." We measure c = speedup/(n+1) at the largest heights of the
// E2/E6 sweeps and contrast with the provable floor.
func E13Constant(cfg Config) []*stats.Table {
	tb := stats.NewTable("E13 measured width-1 constants c = speedup/(n+1) at the largest height",
		"setting", "n", "speedup", "measured c")
	record := func(name string, n int, sSteps, pSteps float64) {
		speedup := sSteps / pSteps
		tb.AddRow(name, n, speedup, speedup/float64(n+1))
	}
	n := cfg.pick(16, 8)
	for _, kind := range []string{"worst", "iid-critical", "best"} {
		tr := norInstance(kind, 2, n, cfg.seed())
		seq := mustSolve(tr, 0, core.Options{})
		par := mustSolve(tr, 1, core.Options{})
		record("B(2,n) "+kind, n, float64(seq.Steps), float64(par.Steps))
	}
	nm := cfg.pick(12, 6)
	trm := tree.IIDMinMax(2, nm, -1_000_000, 1_000_000, cfg.seed())
	seqM := mustAB(trm, 0, core.Options{})
	parM := mustAB(trm, 1, core.Options{})
	record("M(2,n) iid", nm, float64(seqM.Steps), float64(parM.Steps))

	tb.AddNote("the provable constant from the Lemma 1/2 machinery is on the order of beta/4 with beta ~ 0.01-0.1;")
	tb.AddNote("measured constants sit orders of magnitude above it, confirming the paper's closing remark")
	return []*stats.Table{tb}
}
