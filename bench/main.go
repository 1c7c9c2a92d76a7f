// Command bench is the repository's one benchmark: five workloads, one per
// request class, each measured end to end, layer by layer and traced. See
// README.md in this directory for the metrics and how to read them.
//
//	bench --workload NAME --seed N --seconds S --trace 0|1   one run, one JSON line
//	bench all [--seed N] [--seconds S]                        every workload, table + out/result.json
//	bench layers [--seed N]                                   the micro-timings alone
//	bench compare A.json B.json                               regression check between two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricValue is one reported number; the JSON shape is the contract's.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the last line a single run prints.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type runFlags struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	smoke    bool
	out      string
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "all":
			os.Exit(cmdAll(os.Args[2:]))
		case "layers":
			os.Exit(cmdLayers(os.Args[2:]))
		case "compare":
			os.Exit(cmdCompare(os.Args[2:]))
		}
	}
	os.Exit(cmdRun(os.Args[1:]))
}

// newRunFlags declares the flags every subcommand shares; the caller adds
// its own and parses.
func newRunFlags(name string) (*runFlags, *flag.FlagSet) {
	f := &runFlags{}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.StringVar(&f.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&f.seed, "seed", 1, "seed the op lists are generated from")
	fs.IntVar(&f.seconds, "seconds", 20, "measuring time of one run; rounds are sized by op count, this decides how many fit")
	fs.IntVar(&f.trace, "trace", 0, "0: end-to-end metrics, observers off; 1: per-layer metrics, observers on, trace written")
	fs.BoolVar(&f.smoke, "smoke", false, "1/50-size op lists and single rounds: a self-test, not a measurement")
	fs.StringVar(&f.out, "out", "bench/out", "directory for result.json and the traces")
	return f, fs
}

// wideWorkers is W, the compute-worker count of a wide round.
func wideWorkers() int { return min(runtime.NumCPU(), 4) }

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// requireCores refuses to measure on one core: every parallel number the
// benchmark exists to report would be noise.
func requireCores() error {
	if p := runtime.GOMAXPROCS(0); p < 2 {
		return fmt.Errorf("GOMAXPROCS is %d: the benchmark needs at least 2 real cores", p)
	}
	return nil
}

func cmdRun(args []string) int {
	fp, fs := newRunFlags("bench")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	f := *fp
	w, ok := findWorkload(f.workload)
	if !ok || fs.NArg() > 0 || f.seconds < 1 || (f.trace != 0 && f.trace != 1) {
		fmt.Fprintf(os.Stderr, "bench: need --workload (one of %s), --seconds >= 1 and --trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := requireCores(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	warnIfLoaded(wideWorkers())

	var res runResult
	var err error
	if f.trace == 0 {
		res, err = runEndToEnd(w, f)
	} else {
		res, err = runTraced(w, f)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printMetrics(os.Stderr, w.name, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// Shares of --seconds given to the wide rounds, the narrow rounds and
// the repeated set-ups (which also always run minSetups times).
const (
	wideShare   = 0.6
	narrowShare = 0.3
	setupShare  = 0.1
	maxSetups   = 15
)

func budget(seconds int, share float64) time.Duration {
	return time.Duration(float64(seconds) * share * float64(time.Second))
}

// runEndToEnd is one --trace 0 run: set-up (three times, for a steady
// setup_s), then wide rounds (W workers, W callers) and narrow rounds (one
// worker, one caller, first third of the list), observers off.
func runEndToEnd(w workload, f runFlags) (runResult, error) {
	minSetups, minWide, minNarrow := 3, 3, 2
	if f.smoke {
		minSetups, minWide, minNarrow = 1, 1, 1
		f.seconds = 0
	}
	// Set-up is repeated, and its median reported, because one set-up of
	// a few hundred milliseconds is at the mercy of a single GC cycle or
	// scheduler hiccup: at least three times, and cheap set-ups more often
	// (until setupShare of --seconds is spent).
	var s *suite
	var setupS []float64
	for start := time.Now(); len(setupS) < minSetups || (len(setupS) < maxSetups && time.Since(start) < budget(f.seconds, setupShare)); {
		runtime.GC()
		t0 := time.Now()
		var err error
		if s, err = setUp(w, f.seed, f.smoke); err != nil {
			return runResult{}, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	wide, err := s.roundsFor(s.wide(), s.ops, budget(f.seconds, wideShare), minWide)
	if err != nil {
		return runResult{}, err
	}
	narrow, err := s.roundsFor(s.narrow(), s.narrowOps(), budget(f.seconds, narrowShare), minNarrow)
	if err != nil {
		return runResult{}, err
	}

	attempted, failed := tally(wide, narrow)
	if okIn(wide) == 0 {
		return runResult{}, fmt.Errorf("workload %s: no operation succeeded", w.name)
	}
	fmt.Fprintf(os.Stderr, "bench: %s seed %d: closed loop, W=%d workers, %d callers; %d wide + %d narrow rounds of %d/%d ops; latency percentiles per round over %d samples\n",
		w.name, f.seed, s.W, s.wide().callers, len(wide), len(narrow), len(s.ops), len(s.narrowOps()), len(s.ops))
	values := map[string]float64{
		"ops_per_sec":    overRounds(wide, higher, round.opsPerSec),
		"ops_per_sec_w1": overRounds(narrow, higher, round.opsPerSec),
		"latency_p50_ms": overRounds(wide, lower, round.p50),
		"latency_p95_ms": overRounds(wide, lower, round.p95),
		"cpu_ms_per_op":  overRounds(wide, lower, round.cpuMsPerOp),
		"peak_rss_mb":    peakRSSMiB(),
		"setup_s":        median(setupS),
	}
	res := runResult{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range endToEndMetrics {
		res.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
	}
	return res, nil
}

func printMetrics(w *os.File, workloadName string, res runResult) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-14s %-34s %14.4f %s\n", workloadName, n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%-14s attempted %d failed %d\n", workloadName, res.Attempted, res.Failed)
}

// warnIfLoaded prints a warning, never a failure, when the host was busy
// before the run began: the numbers are then noisier than the bounds
// assume.
func warnIfLoaded(W int) {
	if l, ok := loadAverage(); ok && l > float64(W)/2 {
		fmt.Fprintf(os.Stderr, "bench: warning: 1-minute load average %.2f exceeds W/2 = %.1f; expect noisy numbers\n", l, float64(W)/2)
	}
}

func loadAverage() (float64, bool) {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0, false
	}
	var l float64
	if _, err := fmt.Sscan(string(data), &l); err != nil {
		return 0, false
	}
	return l, true
}

// finite replaces NaN and infinities (an empty sample, a zero divisor on a
// workload a layer does not serve) by 0, which JSON can carry.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
