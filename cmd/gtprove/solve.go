// Proof-number solver modes of gtprove: -game solves one combinatorial
// game instance with sequential PN, PN² and pooled parallel PNS, and
// -bench runs the fixed instance suite and prints one row per solver,
// each verdict checked against the instance's oracle.
package main

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

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

gtprove -bench [-reps N]
  runs the proof-number benchmark suite: sequential PN, PN² and pooled
  parallel PNS at 1, 2 and 4 workers, one printed row each; exits
  non-zero when a solve does not finish or a verdict disagrees with the
  instance's oracle.
`)
}

// specErr reports a bad -game/-pos spec: usage on stderr, exit 2.
func specErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gtprove: "+format+"\n\n", args...)
	solveUsage(os.Stderr)
	os.Exit(2)
}

// parseInstance turns (game, spec) into a solvable position plus its
// oracle verdict: Sprague-Grundy theory for nim and kayles, direct NOR
// evaluation of the materialized arena for andor.
func parseInstance(game, spec string) (engine.Position, pns.Verdict) {
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
		return nimInstance(ints(64)...)
	case "kayles":
		return kaylesInstance(ints(64)...)
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
		return andorInstance(branch, depth, bias, seed)
	default:
		specErr("unknown game %q", game)
		panic("unreachable")
	}
}

// solveGame is the -game mode: solve one instance three ways, check the
// verdicts agree (and match the oracle when there is one), and print a
// small comparison table.
func solveGame(game, spec string, workers int, pn2Budget, maxNodes int64) error {
	pos, want := parseInstance(game, spec)
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
	if got := rows[0].res.Verdict; got != pns.Unknown && got != want {
		return fmt.Errorf("oracle disagreement: oracle says %s, solver says %s", want, got)
	}
	fmt.Printf("oracle: %s (agrees)\n", want)
	return nil
}

// oracle maps "the player to move wins" to the verdict a solver must reach.
func oracle(moverWins bool) pns.Verdict {
	if moverWins {
		return pns.Proven
	}
	return pns.Disproven
}

// nimInstance: the mover wins iff the heap xor is nonzero.
func nimInstance(heaps ...int) (engine.Position, pns.Verdict) {
	pos := games.NewNim(heaps...)
	return pos, oracle(pos.XorValue() != 0)
}

// kaylesInstance: the mover wins iff the Grundy value is nonzero.
func kaylesInstance(rows ...int) (engine.Position, pns.Verdict) {
	pos := games.NewKayles(rows...)
	return pos, oracle(pos.GrundyValue() != 0)
}

// andorInstance: the arena tree is fully materialized, so the exact game
// value doubles as the oracle: the mover wins iff the NOR root is 0.
func andorInstance(branch, depth int, bias float64, seed int64) (engine.Position, pns.Verdict) {
	t := tree.IIDNor(branch, depth, bias, seed)
	return engine.NewNode(tree.Pos{T: t}), oracle(t.Evaluate() == 0)
}

func pnString(v uint32) string {
	if v == pns.Inf {
		return "inf"
	}
	return strconv.FormatUint(uint64(v), 10)
}

// benchInstance is one suite entry: big enough that the pooled variant
// has work to distribute, small enough for CI. want is the oracle verdict
// every row must reach.
type benchInstance struct {
	workload string
	pos      engine.Position
	want     pns.Verdict
}

func benchSuite() []benchInstance {
	nim, nimWant := nimInstance(6, 7, 8, 9)
	kayles, kaylesWant := kaylesInstance(7, 6, 5)
	andor, andorWant := andorInstance(3, 11, 0.38, 7)
	return []benchInstance{
		{"nim", nim, nimWant},
		{"kayles", kayles, kaylesWant},
		{"andor", andor, andorWant},
	}
}

// solveBench is the -bench mode. For each suite instance it measures
// sequential PN, PN² and pooled PNS at 1, 2 and 4 workers — every rep on
// a fresh transposition table so rows measure cold solves — and prints
// one row per solver. A row whose solve does not finish or whose verdict
// disagrees with the instance's oracle is an error. A final warm-table
// rep per workload shows the table's effect on a re-solve.
func solveBench(reps int) error {
	ctx := context.Background()

	// measure prints one row over reps timed solves and returns nodes/op.
	measure := func(bi benchInstance, name string, workers int, f func() (pns.Result, error)) (float64, error) {
		if _, err := f(); err != nil { // warm-up rep, untimed
			return 0, fmt.Errorf("%s/%s: %w", bi.workload, name, err)
		}
		var nodes int64
		start := time.Now()
		for i := 0; i < reps; i++ {
			res, err := f()
			if err != nil {
				return 0, fmt.Errorf("%s/%s: %w", bi.workload, name, err)
			}
			if res.Verdict == pns.Unknown {
				return 0, fmt.Errorf("%s/%s: solve did not finish", bi.workload, name)
			}
			if res.Verdict != bi.want {
				return 0, fmt.Errorf("%s/%s(w=%d): verdict %s, oracle says %s",
					bi.workload, name, workers, res.Verdict, bi.want)
			}
			nodes += res.Nodes
		}
		elapsed := time.Since(start)
		nodesPerOp := float64(nodes) / float64(reps)
		nodesPerSec := nodesPerOp / (elapsed.Seconds() / float64(reps))
		fmt.Printf("%-8s %-12s w=%d  %10.0f nodes/op  %12.0f nodes/sec  %s\n",
			bi.workload, name, workers, nodesPerOp, nodesPerSec, bi.want)
		return nodesPerOp, nil
	}

	for _, bi := range benchSuite() {
		seqNodes, err := measure(bi, "pn_seq", 0, func() (pns.Result, error) {
			return pns.New(bi.pos, pns.Options{Table: engine.NewTable(1 << 16)}).Solve(ctx)
		})
		if err != nil {
			return err
		}
		if _, err := measure(bi, "pn2", 0, func() (pns.Result, error) {
			return pns.New(bi.pos, pns.Options{Table: engine.NewTable(1 << 16), PN2Budget: 64}).Solve(ctx)
		}); err != nil {
			return err
		}
		for _, w := range []int{1, 2, 4} {
			if _, err := measure(bi, "pns_pooled", w, func() (pns.Result, error) {
				table := engine.NewTable(1 << 16)
				pool := engine.NewPool(w, table, nil)
				defer pool.Close()
				return pns.New(bi.pos, pns.Options{Table: table}).SolveParallel(ctx, pool)
			}); err != nil {
				return err
			}
		}

		// Warm-table effect: re-solving over a table that already holds
		// the proof touches almost nothing.
		table := engine.NewTable(1 << 16)
		if _, err := pns.New(bi.pos, pns.Options{Table: table}).Solve(ctx); err != nil {
			return err
		}
		warm, err := pns.New(bi.pos, pns.Options{Table: table}).Solve(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("%-8s warm-table resolve: %d expands (cold %0.f nodes/op)\n",
			bi.workload, warm.Expands, seqNodes)
	}
	return nil
}
