package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one interval recorded by the benchmark around a call into a
// layer. Spans of one operation share Op; Parent is the index (within the
// same caller's buffer) of the span that caused it, -1 for the op span.
type span struct {
	Name       string
	Start, End time.Time
	Parent     int
	Op         int
	// Estimated marks a child interval whose duration the server reported
	// but whose position inside the parent the client had to assume.
	Estimated bool
}

// spanBuf is one caller's private span buffer: callers never share one, so
// recording takes no lock. A nil *spanBuf means tracing is off.
type spanBuf struct {
	caller int
	spans  []span
}

// begin opens a span and returns its index; end closes it.
func (b *spanBuf) begin(name string, parent, op int) int {
	if b == nil {
		return -1
	}
	b.spans = append(b.spans, span{Name: name, Start: time.Now(), Parent: parent, Op: op})
	return len(b.spans) - 1
}

func (b *spanBuf) end(i int) {
	if b != nil {
		b.spans[i].End = time.Now()
	}
}

// child records a closed interval of known length ending with its parent,
// the only placement the client can justify for server-reported durations.
func (b *spanBuf) child(name string, parent, op int, end time.Time, d time.Duration) {
	if b == nil || d <= 0 {
		return
	}
	start := end.Add(-d)
	if ps := b.spans[parent].Start; start.Before(ps) {
		start = ps
	}
	b.spans = append(b.spans, span{Name: name, Start: start, End: end, Parent: parent, Op: op, Estimated: true})
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover. Children of one parent never overlap here (they are
// recorded sequentially or placed back to back), so the cover is a sum.
func selfTimes(bufs []*spanBuf) map[string]time.Duration {
	self := map[string]time.Duration{}
	for _, b := range bufs {
		covered := make([]time.Duration, len(b.spans))
		for _, s := range b.spans {
			if s.Parent >= 0 {
				covered[s.Parent] += s.End.Sub(s.Start)
			}
		}
		for i, s := range b.spans {
			self[s.Name] += s.End.Sub(s.Start) - covered[i]
		}
	}
	return self
}

// traceEvent is one Chrome trace-event "complete" record.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds since the round began
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeTrace writes the buffers as Chrome trace-event JSON (Perfetto and
// chrome://tracing load it): one track per caller, the op id and the
// parent span's name in args.
func writeTrace(path string, workloadName string, origin time.Time, bufs []*spanBuf) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":%q},\"traceEvents\":[\n", workloadName)
	first := true
	for _, b := range bufs {
		for _, s := range b.spans {
			ev := traceEvent{
				Name: s.Name, Ph: "X", Pid: 1, Tid: b.caller,
				Ts:   float64(s.Start.Sub(origin).Nanoseconds()) / 1e3,
				Dur:  float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
				Args: map[string]any{"op": s.Op},
			}
			if s.Parent >= 0 {
				ev.Args["parent"] = b.spans[s.Parent].Name
			}
			if s.Estimated {
				ev.Args["placement"] = "estimated"
			}
			line, err := json.Marshal(ev)
			if err != nil {
				f.Close()
				return fmt.Errorf("write trace: %w", err)
			}
			if !first {
				w.WriteString(",\n")
			}
			first = false
			w.Write(line)
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
