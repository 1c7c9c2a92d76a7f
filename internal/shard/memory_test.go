package shard

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"gametree/internal/faultnet"
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

// TestRemoteInstallTakesSlab: an entry the shard tier installs — a
// ttstore from a peer, or the reply to this worker's own remote probe —
// is a store, and takes the table's slab.
func TestRemoteInstallTakesSlab(t *testing.T) {
	for _, kind := range []string{KindTTStore, KindTTReply} {
		w := NewWorker(WorkerConfig{Self: 1, Workers: []int{1, 2}, PoolWorkers: 1, TableEntries: 1 << 10})
		defer w.pool.Close() // never started: no network to close
		const hash = 0x9e3779b97f4a7c15
		if kind == KindTTReply {
			w.outstanding[hash] = probeSent{}
		}
		if w.table.Bytes() != 0 {
			t.Fatalf("%s: a new worker's table holds %d bytes", kind, w.table.Bytes())
		}
		w.deliver(faultnet.Packet{From: 2, To: 1, Payload: &Envelope{Kind: kind, Hash: hash, Value: 7, Depth: 9}})
		if got, want := w.table.Bytes(), int64(16*w.table.Len()); got != want {
			t.Fatalf("%s: table holds %d bytes after the install, want %d", kind, got, want)
		}
		if v, _, _, _, ok := w.table.Probe(hash); !ok || v != 7 {
			t.Fatalf("%s: installed entry reads back ok=%v v=%d", kind, ok, v)
		}
	}
}
