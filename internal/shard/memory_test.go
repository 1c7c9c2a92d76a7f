package shard

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
)

// workerTableBytes reads the worker's table sample off its /metrics
// section.
func workerTableBytes(t *testing.T, w *Worker) string {
	t.Helper()
	var buf bytes.Buffer
	if err := w.PromSection()(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, `gametree_memory_bytes{owner="table"} `); ok {
			return v
		}
	}
	t.Fatalf("worker section has no table memory sample:\n%s", buf.String())
	return ""
}

// TestWorkerTableMemory: a ring worker that has answered only random
// searches holds no table memory; after one Connect-4 search it holds
// the whole slab, 16 bytes per entry.
func TestWorkerTableMemory(t *testing.T) {
	cl := newCluster(t, 1) // one worker: every task lands on it
	w := cl.workers[0]
	for _, pos := range []string{"1", "2", "3"} {
		if _, err := cl.coord.Search(context.Background(), "random", pos, 6); err != nil {
			t.Fatal(err)
		}
	}
	if got := workerTableBytes(t, w); got != "0" {
		t.Fatalf("after random searches only: worker table holds %s bytes", got)
	}
	if _, err := cl.coord.Search(context.Background(), "connect4", "", 6); err != nil {
		t.Fatal(err)
	}
	if got, want := workerTableBytes(t, w), fmt.Sprint(16*w.table.Len()); got != want {
		t.Fatalf("after a connect4 search: worker table holds %s bytes, want %s", got, want)
	}
}
