// Command gtprove demonstrates the paper's theorem-proving motivation: it
// reads a propositional Horn knowledge base, builds the backward-chaining
// AND/OR search space as a NOR tree, and decides the query with the
// paper's sequential and parallel SOLVE algorithms.
//
// Knowledge-base syntax (one clause per line, '#' comments):
//
//	socrates.                 # a fact
//	man :- socrates.          # a rule
//	mortal :- man.
//
// Usage:
//
//	gtprove -kb rules.txt -query mortal
//	gtprove -demo                 # run the built-in demo KB
//	gtprove -layered 4,3,2,2 -bias 0.5   # synthetic layered KB benchmark
//
// The command also fronts the proof-number solver (internal/pns) on
// combinatorial game instances:
//
//	gtprove -game nim -pos 3,5,7 -workers 4   # seq PN vs PN² vs pooled PNS
//	gtprove -game andor -pos 6,3,0.4,1        # random AND/OR search space
//	gtprove -bench                            # PN benchmark suite, oracle-checked
//
// Unknown games or malformed instance specs exit with status 2 and a
// usage summary on stderr.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"gametree"
	"gametree/internal/games"
)

func main() {
	var (
		kbPath  = flag.String("kb", "", "knowledge base file")
		query   = flag.String("query", "", "atom to prove")
		demo    = flag.Bool("demo", false, "run the built-in demo")
		layered = flag.String("layered", "", "layers,atoms,rules,bodyLen for a synthetic KB")
		bias    = flag.Float64("bias", 0.5, "fact probability for the synthetic KB")
		seed    = flag.Int64("seed", 1, "seed for the synthetic KB")
		width   = flag.Int("width", 1, "Parallel SOLVE width")

		game     = flag.String("game", "", "proof-number solve: nim, kayles or andor")
		pos      = flag.String("pos", "", "instance spec for -game (see -game usage)")
		workers  = flag.Int("workers", 4, "pooled PNS workers for -game")
		pn2      = flag.Int64("pn2", 64, "PN² nested-search budget for -game")
		maxNodes = flag.Int64("maxnodes", 0, "tree-node budget for -game (0 = unbounded)")
		bench    = flag.Bool("bench", false, "run the proof-number benchmark suite")
		reps     = flag.Int("reps", 3, "timed reps per -bench row")
	)
	flag.Parse()

	switch {
	case *bench:
		if err := solveBench(*reps); err != nil {
			fmt.Fprintln(os.Stderr, "gtprove:", err)
			os.Exit(1)
		}
		return
	case *game != "":
		if err := solveGame(*game, *pos, *workers, *pn2, *maxNodes); err != nil {
			fmt.Fprintln(os.Stderr, "gtprove:", err)
			os.Exit(1)
		}
		return
	}

	kb, goal, err := loadKB(*kbPath, *query, *demo, *layered, *bias, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gtprove:", err)
		os.Exit(1)
	}
	if err := prove(kb, goal, *width); err != nil {
		fmt.Fprintln(os.Stderr, "gtprove:", err)
		os.Exit(1)
	}
}

func loadKB(path, query string, demo bool, layered string, bias float64, seed int64) (*games.KB, string, error) {
	switch {
	case demo:
		kb, err := games.NewKB([]games.Rule{
			{Head: "socrates"},
			{Head: "plato"},
			{Head: "man", Body: []string{"socrates"}},
			{Head: "man", Body: []string{"plato"}},
			{Head: "mortal", Body: []string{"man"}},
			{Head: "philosopher", Body: []string{"man", "wise"}},
			{Head: "wise", Body: []string{"plato"}},
		})
		return kb, "philosopher", err
	case layered != "":
		parts := strings.Split(layered, ",")
		if len(parts) != 4 {
			return nil, "", fmt.Errorf("-layered wants layers,atoms,rules,bodyLen")
		}
		nums := make([]int, 4)
		for i, p := range parts {
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return nil, "", fmt.Errorf("-layered: %v", err)
			}
			nums[i] = v
		}
		kb, goal := games.LayeredKB(nums[0], nums[1], nums[2], nums[3], bias, seed)
		return kb, goal, nil
	case path != "":
		if query == "" {
			return nil, "", fmt.Errorf("-query is required with -kb")
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		rules, err := parseRules(f)
		if err != nil {
			return nil, "", err
		}
		kb, err := games.NewKB(rules)
		return kb, query, err
	default:
		return nil, "", fmt.Errorf("one of -kb, -demo, -layered is required")
	}
}

func parseRules(f *os.File) ([]games.Rule, error) {
	var rules []games.Rule
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		line = strings.TrimSuffix(line, ".")
		head, body, found := strings.Cut(line, ":-")
		head = strings.TrimSpace(head)
		if head == "" {
			return nil, fmt.Errorf("line %d: empty head", lineNo)
		}
		r := games.Rule{Head: head}
		if found {
			for _, p := range strings.Split(body, ",") {
				p = strings.TrimSpace(p)
				if p == "" {
					return nil, fmt.Errorf("line %d: empty premise", lineNo)
				}
				r.Body = append(r.Body, p)
			}
		}
		rules = append(rules, r)
	}
	return rules, sc.Err()
}

func prove(kb *games.KB, goal string, width int) error {
	fmt.Printf("query: %s\n", goal)
	t, err := kb.ProofTree(goal, 0)
	if err != nil {
		return err
	}
	fmt.Printf("search space: %s\n", t)

	direct := kb.Provable(goal)
	start := time.Now()
	seq, err := gametree.SequentialSolve(t, gametree.Options{})
	if err != nil {
		return err
	}
	seqTime := time.Since(start)
	start = time.Now()
	par, err := gametree.ParallelSolve(t, width, gametree.Options{})
	if err != nil {
		return err
	}
	parTime := time.Since(start)

	provable := seq.Value == 0 // NOR root complements the AND/OR root
	if provable != direct || (par.Value == 0) != direct {
		return fmt.Errorf("internal disagreement: direct=%v seq=%v par=%v", direct, provable, par.Value == 0)
	}
	fmt.Printf("provable: %v\n", provable)
	fmt.Printf("sequential SOLVE:  %6d steps (%s)\n", seq.Steps, seqTime.Round(time.Microsecond))
	fmt.Printf("parallel SOLVE(%d): %6d steps, %d processors (%s)\n",
		width, par.Steps, par.Processors, parTime.Round(time.Microsecond))
	if par.Steps > 0 {
		fmt.Printf("model speedup: %.2fx\n", float64(seq.Steps)/float64(par.Steps))
	}
	return nil
}
