package telemetry

// Prometheus text exposition (version 0.0.4) of a telemetry snapshot:
// the counter totals as counter families, the per-worker task split as a
// labelled counter, and every histogram family with cumulative log₂
// buckets. The output is fully deterministic for a given snapshot —
// families in fixed order, workers ascending, `le` labels ascending —
// so the format is golden-testable and diff-friendly.
//
// Serving: PromHandler adapts a live Recorder to an http.Handler; the
// gtbench and gtplay -pprof muxes mount it at /metrics, which any
// Prometheus scraper (or plain curl) can poll during a run.

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"

	"gametree/internal/metrics"
)

// promCounter is one counter family derived from the snapshot totals.
type promCounter struct {
	name string
	help string
	val  int64
}

// WriteProm writes the snapshot in the Prometheus text exposition format.
func WriteProm(w io.Writer, s Snapshot) error {
	counters := []promCounter{
		{"gametree_nodes_total", "Positions visited by the search.", s.Total.Nodes},
		{"gametree_tasks_total", "Speculative sibling tasks executed.", s.Total.Tasks},
		{"gametree_splits_total", "Split points opened.", s.Total.Splits},
		{"gametree_nested_splits_total", "Split points opened beneath an enclosing split.", s.Total.NestedSplits},
		{"gametree_steal_attempts_total", "Steal attempts on a non-empty victim deque.", s.Total.StealAttempts},
		{"gametree_steals_total", "Steal attempts that won the task.", s.Total.Steals},
		{"gametree_aborts_total", "Tasks skipped or pre-empted by an abort.", s.Total.Aborts},
		{"gametree_nested_aborts_total", "Aborts propagated from an ancestor split's cutoff.", s.Total.NestedAborts},
		{"gametree_abort_drains_total", "Joins that drained after a beta cutoff.", s.Total.AbortDrains},
		{"gametree_pool_parks_total", "Times an idle pool helper parked on the condition variable.", s.Total.Parks},
		{"gametree_tt_probes_total", "Transposition-table probes.", s.Total.TTProbes},
		{"gametree_tt_hits_total", "Transposition-table probe hits.", s.Total.TTHits},
		{"gametree_tt_stores_total", "Transposition-table stores.", s.Total.TTStores},
		{"gametree_tt_evictions_total", "Stores that displaced a live entry.", s.Total.TTEvictions},
		{"gametree_table_cuts_total", "Table nodes whose children raised alpha to beta.", s.Total.TableCuts},
		{"gametree_eldest_cuts_total", "Table-node cuts that came from the eldest child.", s.Total.EldestCuts},
		{"gametree_order_evals_total", "Evaluate calls spent ordering the children of table nodes.", s.Total.OrderEvals},
		{"gametree_msgs_sent_total", "Message-passing messages sent.", s.Total.MsgsSent},
		{"gametree_msgs_recv_total", "Message-passing messages received.", s.Total.MsgsRecv},
		{"gametree_msgs_stale_total", "Message-passing messages dropped as stale.", s.Total.MsgsStale},
		{"gametree_shard_tasks_total", "Root tasks dispatched to shard workers.", s.Total.ShardTasks},
		{"gametree_shard_reissues_total", "Tasks reissued after a shard worker timed out or died.", s.Total.ShardReissues},
		{"gametree_pn_nodes_total", "Nodes traversed during proof-number most-proving descents.", s.Total.PNNodes},
		{"gametree_pn_expands_total", "Leaves expanded by the proof-number solver.", s.Total.PNExpands},
		{"gametree_pn_updates_total", "Ancestor proof/disproof-number recomputations.", s.Total.PNUpdates},
	}
	for _, c := range counters {
		if err := promHeader(w, c.name, c.help, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", c.name, c.val); err != nil {
			return err
		}
	}

	if err := promHeader(w, "gametree_workers", "Worker shards registered with the recorder.", "gauge"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "gametree_workers %d\n", len(s.PerWorker)); err != nil {
		return err
	}
	if err := promHeader(w, "gametree_deque_high_water", "Deepest deque observed on any worker.", "gauge"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "gametree_deque_high_water %d\n", s.Total.DequeMax); err != nil {
		return err
	}

	if err := promHeader(w, "gametree_worker_tasks_total", "Speculative tasks executed, per worker.", "counter"); err != nil {
		return err
	}
	for i, c := range s.PerWorker {
		if _, err := fmt.Fprintf(w, "gametree_worker_tasks_total{worker=\"%d\"} %d\n", i, c.Tasks); err != nil {
			return err
		}
	}

	for h := 0; h < NumHists; h++ {
		name := "gametree_" + HistName(h)
		if err := promHeader(w, name, HistHelp(h), "histogram"); err != nil {
			return err
		}
		if err := promHistogram(w, name, s.Hist[h]); err != nil {
			return err
		}
	}
	return nil
}

// promHeader writes the HELP and TYPE lines of one family.
func promHeader(w io.Writer, name, help, typ string) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	return err
}

// promHistogram writes the cumulative bucket series of one family:
// ascending `le` bounds up to the highest populated bucket (empty
// trailing buckets carry no information), then the mandatory +Inf bucket,
// _sum and _count.
func promHistogram(w io.Writer, name string, s metrics.HistSnapshot) error {
	hi := -1
	for i, c := range s.Buckets {
		if c > 0 {
			hi = i
		}
	}
	var cum int64
	for i := 0; i <= hi; i++ {
		cum += s.Buckets[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, metrics.BucketUpper(i), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, s.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", name, s.Sum, name, s.Count); err != nil {
		return err
	}
	return nil
}

// PromCounter writes one counter family: HELP/TYPE header plus a single
// unlabelled sample. Exported for subsystems (the serve layer) that
// append their own families to a Recorder exposition via AddPromSection.
func PromCounter(w io.Writer, name, help string, v int64) error {
	if err := promHeader(w, name, help, "counter"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", name, v)
	return err
}

// PromGauge writes one gauge family.
func PromGauge(w io.Writer, name, help string, v int64) error {
	if err := promHeader(w, name, help, "gauge"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", name, v)
	return err
}

// MemoryOwner is one sample of the gametree_memory_bytes gauge family:
// the bytes one owner of memory (the transposition table, the
// parked-solver store) holds.
type MemoryOwner struct {
	Owner string
	Bytes int64
}

// PromMemory writes the gametree_memory_bytes family, one sample per
// owner in the order given.
func PromMemory(w io.Writer, owners ...MemoryOwner) error {
	if err := promHeader(w, "gametree_memory_bytes", "Bytes held, by owner.", "gauge"); err != nil {
		return err
	}
	for _, o := range owners {
		if _, err := fmt.Fprintf(w, "gametree_memory_bytes{owner=%q} %d\n", o.Owner, o.Bytes); err != nil {
			return err
		}
	}
	return nil
}

// PromHistogram writes one histogram family with the recorder's
// cumulative log₂ bucket scheme.
func PromHistogram(w io.Writer, name, help string, s metrics.HistSnapshot) error {
	if err := promHeader(w, name, help, "histogram"); err != nil {
		return err
	}
	return promHistogram(w, name, s)
}

// AddPromSection registers an extra exposition section written after the
// recorder's own families by (*Recorder).WriteProm — and therefore by
// PromHandler — so a subsystem built on the recorder (the serve layer's
// admission counters and latency histograms) shares the one /metrics
// endpoint. Sections are written in registration order. Nil-safe: a nil
// recorder drops the registration.
func (r *Recorder) AddPromSection(f func(io.Writer) error) {
	if r == nil || f == nil {
		return
	}
	r.mu.Lock()
	r.promSections = append(r.promSections, f)
	r.mu.Unlock()
}

// WriteProm writes this recorder's current snapshot in the Prometheus
// text exposition format, followed by any registered extra sections.
// Nil-safe: a nil recorder writes the empty snapshot (all families
// present, all zero).
func (r *Recorder) WriteProm(w io.Writer) error {
	if err := WriteProm(w, r.Snapshot()); err != nil {
		return err
	}
	if r == nil {
		return nil
	}
	r.mu.Lock()
	sections := append([]func(io.Writer) error(nil), r.promSections...)
	r.mu.Unlock()
	for _, f := range sections {
		if err := f(w); err != nil {
			return err
		}
	}
	return nil
}

// BuildInfoSection returns an AddPromSection-compatible writer
// publishing the process's build identity as the conventional
// constant-1 info gauge: gametree_build_info{go_version=...,
// revision=...} 1. The revision is the VCS commit stamped by the Go
// toolchain at build time ("unknown" for test binaries and go-run
// builds, "+dirty" appended when the working tree was modified).
func BuildInfoSection() func(io.Writer) error {
	goVer := runtime.Version()
	rev := "unknown"
	dirty := ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
	}
	line := fmt.Sprintf("gametree_build_info{go_version=%q,revision=%q} 1\n", goVer, rev+dirty)
	return func(w io.Writer) error {
		if err := promHeader(w, "gametree_build_info", "Build identity; value is always 1.", "gauge"); err != nil {
			return err
		}
		_, err := io.WriteString(w, line)
		return err
	}
}

// PromHandler serves a live recorder as a Prometheus /metrics endpoint.
// Every request takes a fresh snapshot, so a scrape during a running
// search sees a momentary — but race-clean — view.
func PromHandler(r *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WriteProm(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
