// Command gtbench regenerates the full reproduction suite E1-E13 (one
// experiment per quantitative claim of Karp & Zhang 1989) and prints the
// tables recorded in EXPERIMENTS.md.
//
// Usage:
//
//	gtbench                 # full suite (minutes)
//	gtbench -quick          # reduced sizes (seconds)
//	gtbench -only E2,E6     # a subset
//	gtbench -csv dir/       # additionally write each table as CSV
//	gtbench -pprof localhost:6060 ...
//	                        # serve net/http/pprof + expvar while running
package main

import (
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gametree/internal/experiments"
)

func main() {
	var (
		quick     = flag.Bool("quick", false, "run reduced sizes")
		only      = flag.String("only", "", "comma-separated experiment ids (e.g. E2,E6); empty = all")
		csvDir    = flag.String("csv", "", "directory to write per-table CSV files")
		jsonDir   = flag.String("json", "", "directory to write per-table JSON files")
		seed      = flag.Int64("seed", 0, "override base seed (0 = default)")
		trials    = flag.Int("trials", 0, "override trials per data point (0 = default)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060) while running")
	)
	flag.Parse()

	if *pprofAddr != "" {
		startPprof(*pprofAddr)
	}

	cfg := experiments.Config{Quick: *quick, Seed: *seed, Trials: *trials}
	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[strings.ToUpper(id)] = true
		}
	}
	for _, dir := range []string{*csvDir, *jsonDir} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "gtbench:", err)
			os.Exit(1)
		}
	}

	suite := experiments.Suite()
	known := map[string]bool{}
	for _, e := range suite {
		known[e.ID] = true
	}
	for id := range want {
		if !known[id] {
			fmt.Fprintf(os.Stderr, "gtbench: unknown experiment %q\n", id)
			os.Exit(1)
		}
	}

	total := time.Now()
	for _, e := range suite {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		fmt.Printf("=== %s — %s\n", e.ID, e.Claim)
		start := time.Now()
		tables := e.Run(cfg)
		for _, tb := range tables {
			fmt.Println()
			if err := tb.Render(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "gtbench:", err)
				os.Exit(1)
			}
			if *csvDir != "" {
				writeTable(*csvDir, sanitize(tb.Title)+".csv", tb.RenderCSV)
			}
			if *jsonDir != "" {
				writeTable(*jsonDir, sanitize(tb.Title)+".json", tb.RenderJSON)
			}
		}
		fmt.Printf("\n(%s in %s)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	fmt.Printf("suite completed in %s\n", time.Since(total).Round(time.Millisecond))
}

// startPprof serves the default mux — which the blank net/http/pprof
// import populates with /debug/pprof/ and the expvar import with
// /debug/vars — on addr, in the background.
// Profile a live run with e.g.
// `go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10`.
func startPprof(addr string) {
	expvar.NewString("gtbench_start").Set(time.Now().UTC().Format(time.RFC3339))
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintln(os.Stderr, "gtbench: pprof server:", err)
		}
	}()
	fmt.Printf("pprof/expvar listening on http://%s/debug/pprof/\n", addr)
}

func writeTable(dir, name string, render func(io.Writer) error) {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		fmt.Fprintln(os.Stderr, "gtbench:", err)
		os.Exit(1)
	}
	if err := render(f); err != nil {
		f.Close()
		fmt.Fprintln(os.Stderr, "gtbench:", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "gtbench:", err)
		os.Exit(1)
	}
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		case r == ' ', r == ',', r == '(', r == ')':
			return '_'
		default:
			return '-'
		}
	}, s)
}
