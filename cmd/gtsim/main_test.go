package main

import (
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// runOutput calls run with gtsim's flag defaults for everything but the
// algorithm, instance and processor count, and returns what it printed.
func runOutput(t *testing.T, algo, instance string, n, procs int) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	runErr := run(algo, 2, n, 1, procs, instance, -1, -1000, 1000, 0.5, 0.5, 1, 1, "")
	os.Stdout = stdout
	w.Close()
	printed := string(<-out)
	r.Close()
	if runErr != nil {
		t.Fatalf("run(%s, %s, n=%d, p=%d): %v\n%s", algo, instance, n, procs, runErr, printed)
	}
	return printed
}

var valueRE = regexp.MustCompile(`(?m)^value=(-?\d+) `)

// TestRunPrintsExactValue drives gtsim's run end to end: the Section 7
// machine (one processor per level, p=1 and p=4 zones) on worst-case and
// i.i.d. NOR instances, the step-model Parallel SOLVE on the same worst
// case, and the node-expansion N- simulators (SOLVE on NOR, alpha-beta on
// the MIN/MAX instance of the same name) must each print value= equal to
// the instance's exact value.
func TestRunPrintsExactValue(t *testing.T) {
	const n = 10
	cases := []struct {
		algo, instance string
		procs          int
	}{
		{"msgpass", "worst", 0},
		{"msgpass", "worst", 1},
		{"msgpass", "worst", 4},
		{"msgpass", "iid", 0},
		{"msgpass", "iid", 1},
		{"msgpass", "iid", 4},
		{"parallel-solve", "worst", 4},
		{"n-sequential-solve", "iid", 0},
		{"n-parallel-solve", "worst", 0},
		{"n-sequential-ab", "iid", 0},
		{"n-parallel-ab", "iid", 0},
	}
	for _, c := range cases {
		t.Run(c.algo+"/"+c.instance+"/p"+strconv.Itoa(c.procs), func(t *testing.T) {
			tr, err := buildInstance(c.instance, strings.HasSuffix(c.algo, "-ab"), 2, n, -1, -1000, 1000, 0.5, 0.5, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			printed := runOutput(t, c.algo, c.instance, n, c.procs)
			m := valueRE.FindStringSubmatch(printed)
			if m == nil {
				t.Fatalf("no value= line in output:\n%s", printed)
			}
			if got, want := m[1], strconv.Itoa(int(tr.Evaluate())); got != want {
				t.Fatalf("printed value=%s, exact value %s\n%s", got, want, printed)
			}
		})
	}
}
