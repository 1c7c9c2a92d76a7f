// Command gtsim runs one game-tree evaluation algorithm on one generated
// instance and prints the step-model metrics. It is the workbench for
// exploring the paper's algorithms interactively.
//
// Usage:
//
//	gtsim -algo parallel-solve -d 2 -n 12 -width 1 -instance worst
//	gtsim -algo team-solve -p 64 -d 2 -n 14 -instance iid -bias 0.618
//	gtsim -algo parallel-ab -d 2 -n 10 -width 1 -instance iid
//	gtsim -algo msgpass -n 12 -instance worst
//	gtsim -algo msgpass -n 12 -p 4 -instance iid
//	gtsim -algo n-parallel-solve -d 3 -n 8 -width 2 -instance best
//
// Instances: worst, best, iid (NOR, with -bias; MinMax with -lo/-hi),
// best-ordered, worst-ordered (MinMax), near-uniform (with -alpha/-beta).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gametree"
)

func main() {
	var (
		algo     = flag.String("algo", "parallel-solve", "algorithm: sequential-solve, team-solve, parallel-solve, sequential-ab, parallel-ab, n-sequential-solve, n-parallel-solve, n-sequential-ab, n-parallel-ab, r-sequential-solve, r-parallel-solve, r-sequential-ab, r-parallel-ab, msgpass, minimax, alphabeta, scout")
		d        = flag.Int("d", 2, "branching factor")
		n        = flag.Int("n", 10, "tree height")
		width    = flag.Int("width", 1, "pruning-number width for parallel algorithms")
		procs    = flag.Int("p", 4, "processors for team-solve / msgpass (msgpass: 0 = one per level)")
		instance = flag.String("instance", "worst", "instance family: worst, best, iid, best-ordered, worst-ordered, near-uniform")
		bias     = flag.Float64("bias", -1, "i.i.d. leaf bias for NOR instances (-1 = stationary/hardest bias)")
		lo       = flag.Int("lo", -1000, "min leaf value for MinMax iid instances")
		hi       = flag.Int("hi", 1000, "max leaf value for MinMax iid instances")
		alpha    = flag.Float64("alpha", 0.5, "degree ratio for near-uniform instances")
		beta     = flag.Float64("beta", 0.5, "depth ratio for near-uniform instances")
		seed     = flag.Int64("seed", 1, "random seed")
		rootVal  = flag.Int("rootval", 1, "root value for worst/best NOR instances")
		dot      = flag.String("dot", "", "write the instance as Graphviz DOT to this file")
	)
	flag.Parse()

	if err := run(*algo, *d, *n, *width, *procs, *instance, *bias, int32(*lo), int32(*hi),
		*alpha, *beta, *seed, int32(*rootVal), *dot); err != nil {
		fmt.Fprintln(os.Stderr, "gtsim:", err)
		os.Exit(1)
	}
}

func run(algo string, d, n, width, procs int, instance string, bias float64, lo, hi int32,
	alpha, beta float64, seed int64, rootVal int32, dot string) error {
	minmax := strings.Contains(algo, "ab") || algo == "minimax" || algo == "scout"
	t, err := buildInstance(instance, minmax, d, n, bias, lo, hi, alpha, beta, seed, rootVal)
	if err != nil {
		return err
	}
	if dot != "" {
		f, err := os.Create(dot)
		if err != nil {
			return err
		}
		if err := t.WriteDOT(f, "instance"); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", dot)
	}
	fmt.Printf("instance: %s (%s, exact value %d)\n", instance, t, t.Evaluate())

	start := time.Now()
	switch algo {
	case "sequential-solve":
		return report(gametree.SequentialSolve(t, gametree.Options{}))(start)
	case "team-solve":
		return report(gametree.TeamSolve(t, procs, gametree.Options{}))(start)
	case "parallel-solve":
		return report(gametree.ParallelSolve(t, width, gametree.Options{}))(start)
	case "sequential-ab":
		return report(gametree.SequentialAlphaBeta(t, gametree.Options{}))(start)
	case "parallel-ab":
		return report(gametree.ParallelAlphaBeta(t, width, gametree.Options{}))(start)
	case "n-sequential-solve":
		return reportExpand(gametree.NSequentialSolve(t, gametree.Options{}))(start)
	case "n-parallel-solve":
		return reportExpand(gametree.NParallelSolve(t, width, gametree.Options{}))(start)
	case "n-sequential-ab":
		return reportExpand(gametree.NSequentialAlphaBeta(t, gametree.Options{}))(start)
	case "n-parallel-ab":
		return reportExpand(gametree.NParallelAlphaBeta(t, width, gametree.Options{}))(start)
	case "r-sequential-solve":
		v, work := gametree.RSequentialSolve(t, seed)
		fmt.Printf("value=%d expansions=%d elapsed=%s\n", v, work, time.Since(start).Round(time.Microsecond))
		return nil
	case "r-parallel-solve":
		return reportExpand(gametree.RParallelSolve(t, width, seed, gametree.Options{}))(start)
	case "r-sequential-ab":
		v, work := gametree.RSequentialAlphaBeta(t, seed)
		fmt.Printf("value=%d expansions=%d elapsed=%s\n", v, work, time.Since(start).Round(time.Microsecond))
		return nil
	case "r-parallel-ab":
		return reportExpand(gametree.RParallelAlphaBeta(t, width, seed, gametree.Options{}))(start)
	case "msgpass":
		m, err := gametree.EvaluateMessagePassing(t, gametree.MsgPassOptions{Processors: procs})
		if err != nil {
			return err
		}
		fmt.Printf("value=%d expansions=%d messages=%d processors=%d elapsed=%s\n",
			m.Value, m.Expansions, m.Messages, m.Processors, time.Since(start).Round(time.Microsecond))
		return nil
	case "minimax":
		r := gametree.Minimax(t)
		fmt.Printf("value=%d leaves=%d elapsed=%s\n", r.Value, r.Leaves, time.Since(start).Round(time.Microsecond))
		return nil
	case "alphabeta":
		r := gametree.AlphaBeta(t)
		fmt.Printf("value=%d leaves=%d elapsed=%s\n", r.Value, r.Leaves, time.Since(start).Round(time.Microsecond))
		return nil
	case "scout":
		r := gametree.Scout(t)
		fmt.Printf("value=%d leaves=%d elapsed=%s\n", r.Value, r.Leaves, time.Since(start).Round(time.Microsecond))
		return nil
	default:
		return fmt.Errorf("unknown algorithm %q", algo)
	}
}

func buildInstance(instance string, minmax bool, d, n int, bias float64, lo, hi int32,
	alpha, beta float64, seed int64, rootVal int32) (*gametree.Tree, error) {
	if bias < 0 {
		bias = gametree.StationaryBias(d)
	}
	switch instance {
	case "worst":
		if minmax {
			return gametree.WorstOrderedMinMax(d, n, seed), nil
		}
		return gametree.WorstCaseNOR(d, n, rootVal), nil
	case "best":
		if minmax {
			return gametree.BestOrderedMinMax(d, n, seed), nil
		}
		return gametree.BestCaseNOR(d, n, rootVal), nil
	case "best-ordered":
		return gametree.BestOrderedMinMax(d, n, seed), nil
	case "worst-ordered":
		return gametree.WorstOrderedMinMax(d, n, seed), nil
	case "iid":
		if minmax {
			return gametree.IIDMinMax(d, n, lo, hi, seed), nil
		}
		return gametree.IIDNor(d, n, bias, seed), nil
	case "near-uniform":
		kind := gametree.NOR
		if minmax {
			kind = gametree.MinMax
		}
		var assign gametree.LeafAssigner
		if minmax {
			assign = func(i int) int32 { return lo + int32(int64(i*2654435761)%int64(hi-lo+1)) }
		} else {
			assign = func(i int) int32 {
				if float64((i*2654435761)%1000)/1000 < bias {
					return 1
				}
				return 0
			}
		}
		return gametree.NearUniform(kind, d, n, alpha, beta, seed, assign), nil
	default:
		return nil, fmt.Errorf("unknown instance family %q", instance)
	}
}

func report(m gametree.Metrics, err error) func(time.Time) error {
	return func(start time.Time) error {
		if err != nil {
			return err
		}
		fmt.Printf("value=%d steps=%d work=%d processors=%d elapsed=%s\n",
			m.Value, m.Steps, m.Work, m.Processors, time.Since(start).Round(time.Microsecond))
		fmt.Printf("degree histogram (degree:steps):")
		for k, c := range m.DegreeHist {
			if c > 0 {
				fmt.Printf(" %d:%d", k, c)
			}
		}
		fmt.Println()
		return nil
	}
}

func reportExpand(m gametree.Metrics, err error) func(time.Time) error {
	return func(start time.Time) error {
		if err != nil {
			return err
		}
		fmt.Printf("value=%d steps=%d expansions=%d processors=%d elapsed=%s\n",
			m.Value, m.Steps, m.Work, m.Processors, time.Since(start).Round(time.Microsecond))
		return nil
	}
}
