package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/suite.golden from the current simulators")

// goldenPath holds the step tables of every experiment except E12 at the
// full-size default Config. E12 is left out because it times real runs
// and its message-passing columns vary from run to run.
var goldenPath = filepath.Join("testdata", "suite.golden")

// renderSuiteGolden renders the golden's experiments the way gtbench
// prints them, minus the timing lines: one header per experiment, then
// each table after a blank line.
func renderSuiteGolden() []byte {
	var b bytes.Buffer
	for _, e := range Suite() {
		if e.ID == "E12" {
			continue
		}
		fmt.Fprintf(&b, "=== %s — %s\n", e.ID, e.Claim)
		for _, tb := range e.Run(Config{}) {
			b.WriteString("\n")
			b.WriteString(tb.String())
		}
		b.WriteString("\n")
	}
	return b.Bytes()
}

// TestSuiteGolden pins the paper's step tables byte for byte: a change to
// any simulator that moves a step count, a work total or a histogram
// fails here. Regenerate with `go test ./internal/experiments -run
// TestSuiteGolden -update` only when a table is meant to change.
func TestSuiteGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size suite; runs without -short")
	}
	got := renderSuiteGolden()
	if *update {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", goldenPath, i+1, g, w)
			}
		}
	}
}
