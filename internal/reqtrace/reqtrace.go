// Package reqtrace is the request-scoped distributed tracing layer of
// the serving tiers. Where internal/telemetry's spans describe one
// process's scheduler (split points on worker tracks, recorder-epoch
// monotonic time), reqtrace follows one *request* across the shard
// ring: gtserve mints a trace ID per sampled request (or adopts an
// inbound X-GT-Trace header), the ID rides the serve context into the
// shard coordinator, crosses the wire in every task envelope, survives
// reissue to a ring successor, and stamps the worker's compute,
// done-cache and remote-TT activity — so the question "where did this
// request's 80ms go?" has a per-stage answer instead of a histogram
// shrug.
//
// Design points, in the spirit of the PR 2 telemetry layer:
//
//   - A nil *Tracer is valid "tracing off"; every method no-ops. An
//     empty trace ID means "this request is unsampled" and every
//     recording site guards on it first, so the unsampled hot path is
//     one string comparison and zero allocations (asserted by test).
//   - Spans carry wall-clock UnixNano timestamps, not a process-local
//     monotonic epoch, because they must be merged across processes.
//     Cross-process clock skew is corrected at merge time from the
//     coordinator's ping-echo offset estimates (see Offset), never at
//     record time — raw local timestamps stay honest in the buffer.
//   - The span buffer is a bounded overwrite-oldest ring: a resident
//     server traced for hours keeps the most recent spans (the ones a
//     scrape during an incident wants) and counts what it overwrote.
//   - Per-stage durations also feed fixed log₂ histograms published as
//     the gametree_shard_stage_ns{stage=...} Prometheus family, so the
//     stage decomposition survives without any trace scrape at all.
//
// The HTTP surface is GET /debug/gttrace: one JSON Dump of the local
// buffer plus (on the coordinator) the per-peer clock offsets. The
// gtobs command scrapes every ring process, aligns clocks, and merges
// the dumps into one Chrome/Perfetto trace with per-process lanes.
package reqtrace

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"gametree/internal/metrics"
)

// Stage names. Stable strings: they are the JSON schema, the Chrome
// trace event names and the Prometheus stage label values.
const (
	StageRequest     = "request"      // serve: whole HTTP request, admission to response
	StageQueue       = "queue"        // serve: leader's wait for a pool token; worker: task queue residence
	StageSearch      = "search"       // serve: leader's backend/pool search, start to settle
	StageExpand      = "expand"       // coordinator: root expansion to the task frontier
	StageRoute       = "route"        // coordinator: consistent-hash routing + dispatch of one cascade wave
	StageRPC         = "rpc"          // coordinator: one task in flight, first dispatch to result
	StageFold        = "fold"         // coordinator: the cascade's last folds, latest wave settled to root value
	StageCompute     = "compute"      // worker: one task's pool search
	StageDoneCache   = "done-cache"   // worker: a reissued duplicate re-answered from the result cache
	StageRemoteProbe = "remote-probe" // worker: remote TT probe, send to reply
	StageReissue     = "reissue"      // coordinator: a stale task re-sent to a ring successor
	StageRejoin      = "rejoin"       // coordinator: a worker admitted back; DurNs is the outage when one preceded
	StageLocal       = "local"        // coordinator: a leaf computed on the fallback pool (degraded mode)
)

// stageIndex maps a stage name onto its histogram slot. Unknown stages
// (future additions crossing version skew) fall out at -1 and are
// recorded as spans but not histogrammed.
var stageNames = [...]string{
	StageRequest, StageQueue, StageSearch, StageExpand, StageRoute,
	StageRPC, StageFold, StageCompute, StageDoneCache, StageRemoteProbe,
	StageReissue, StageRejoin, StageLocal,
}

func stageIndex(stage string) int {
	for i, s := range stageNames {
		if s == stage {
			return i
		}
	}
	return -1
}

// Span is one stage of one request on one process. Times are wall-clock
// UnixNano on the recording process; merge-time offset correction maps
// them onto the coordinator's clock.
type Span struct {
	Trace   string `json:"trace"`
	Proc    int    `json:"proc"`
	Stage   string `json:"stage"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Task    uint64 `json:"task,omitempty"`   // shard task id (rpc/compute/done-cache/reissue)
	Worker  int    `json:"worker,omitempty"` // peer proc involved (rpc/reissue destination)
	Note    string `json:"note,omitempty"`   // outcome detail: status, cache verdict, error
}

// Offset is one peer's estimated clock offset relative to the observing
// process (conventionally the coordinator): peer_wall_ns ≈ local_wall_ns
// + OffsetNs at the same instant. RTTNs is the round trip the estimate
// came from — the lower it is, the tighter the bound on the error
// (at most RTT/2, from the usual NTP-style symmetric-delay argument).
type Offset struct {
	OffsetNs int64 `json:"offset_ns"`
	RTTNs    int64 `json:"rtt_ns"`
}

// Dump is the /debug/gttrace response: one process's span buffer plus
// identity and (when the process estimates them) per-peer clock offsets
// keyed by decimal proc id.
type Dump struct {
	Proc    int               `json:"proc"`
	Role    string            `json:"role"`
	NowNs   int64             `json:"now_ns"` // scrape-time wall clock, a coarse offset fallback
	Sample  int               `json:"sample"`
	Dropped int64             `json:"dropped"`
	Offsets map[string]Offset `json:"offsets,omitempty"`
	Spans   []Span            `json:"spans"`
}

// defaultMaxSpans bounds the ring buffer; at ~10 spans per traced
// request this keeps the last few hundred requests.
const defaultMaxSpans = 1 << 13

// Tracer is one process's request-span recorder. Construct with New;
// a nil *Tracer is "tracing off" and every method is a no-op.
type Tracer struct {
	proc    int
	role    string
	sampleN int64
	counter atomic.Int64 // sampling decisions

	mu      sync.Mutex
	buf     []Span // overwrite-oldest ring
	next    int    // ring write cursor
	wrapped bool
	dropped int64 // spans overwritten

	offsets func() map[int]Offset // optional, installed by the coordinator

	hists [len(stageNames)]metrics.Histogram // per-stage durations (unknown stages skip)
}

// New builds a tracer for one process. sampleN selects span recording
// for requests without an inbound trace header: 1 records every
// request, N > 1 records one in N, 0 (or negative) records none —
// though an explicit inbound X-GT-Trace header is always honoured.
// maxSpans bounds the ring (<= 0 takes the default).
func New(proc int, role string, sampleN, maxSpans int) *Tracer {
	if maxSpans <= 0 {
		maxSpans = defaultMaxSpans
	}
	return &Tracer{
		proc:    proc,
		role:    role,
		sampleN: int64(sampleN),
		buf:     make([]Span, 0, maxSpans),
	}
}

// Proc returns the tracer's processor id (0 when nil).
func (t *Tracer) Proc() int {
	if t == nil {
		return 0
	}
	return t.proc
}

// SampleNext decides whether the next headerless request should be
// traced. Nil-safe: a nil tracer samples nothing.
func (t *Tracer) SampleNext() bool {
	if t == nil || t.sampleN <= 0 {
		return false
	}
	if t.sampleN == 1 {
		return true
	}
	return t.counter.Add(1)%t.sampleN == 1
}

// idRand seeds trace-ID minting once per process; IDs only need to be
// distinct within a trace scrape window, not cryptographic.
var (
	idMu   sync.Mutex
	idRand = rand.New(rand.NewSource(time.Now().UnixNano()))
)

// MintID returns a fresh 64-bit hex trace ID.
func MintID() string {
	idMu.Lock()
	v := idRand.Uint64()
	idMu.Unlock()
	return fmt.Sprintf("%016x", v)
}

// Record appends a span if tracing is on and the span carries a trace
// ID. The empty-trace guard is the whole sampling contract: unsampled
// requests flow through every instrumented site with Trace == "" and
// never reach the buffer or the histograms.
func (t *Tracer) Record(s Span) {
	if t == nil || s.Trace == "" {
		return
	}
	s.Proc = t.proc
	if i := stageIndex(s.Stage); i >= 0 {
		t.hists[i].Observe(s.DurNs)
	}
	t.mu.Lock()
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, s)
	} else {
		t.buf[t.next] = s
		t.wrapped = true
		t.dropped++
	}
	t.next = (t.next + 1) % cap(t.buf)
	t.mu.Unlock()
}

// Spans returns the buffered spans oldest-first and the count
// overwritten by the ring. Nil-safe.
func (t *Tracer) Spans() ([]Span, int64) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.wrapped {
		return append([]Span(nil), t.buf...), t.dropped
	}
	out := make([]Span, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out, t.dropped
}

// SetOffsets installs the per-peer clock-offset source (the shard
// coordinator's ping-echo estimator) surfaced in the Dump. Nil-safe.
func (t *Tracer) SetOffsets(f func() map[int]Offset) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.offsets = f
	t.mu.Unlock()
}

// DumpState snapshots the tracer as a Dump.
func (t *Tracer) DumpState() Dump {
	if t == nil {
		return Dump{NowNs: time.Now().UnixNano()}
	}
	spans, dropped := t.Spans()
	d := Dump{
		Proc:    t.proc,
		Role:    t.role,
		NowNs:   time.Now().UnixNano(),
		Sample:  int(t.sampleN),
		Dropped: dropped,
		Spans:   spans,
	}
	t.mu.Lock()
	off := t.offsets
	t.mu.Unlock()
	if off != nil {
		m := off()
		if len(m) > 0 {
			d.Offsets = make(map[string]Offset, len(m))
			for p, o := range m {
				d.Offsets[fmt.Sprintf("%d", p)] = o
			}
		}
	}
	return d
}

// Handler serves the tracer as GET /debug/gttrace. Nil-safe: a nil
// tracer serves an empty dump, so the endpoint can be mounted
// unconditionally.
func Handler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(t.DumpState())
	})
}

// PromSection returns an AddPromSection-compatible writer publishing the
// per-stage duration histograms as one labelled family,
// gametree_shard_stage_ns{stage="..."}. Only sampled requests feed the
// family (the same requests that produce spans), which keeps the
// unsampled hot path untouched; with sampling at 1 the family is a
// complete per-stage latency account.
func (t *Tracer) PromSection() func(io.Writer) error {
	return func(w io.Writer) error {
		if t == nil {
			return nil
		}
		if _, err := fmt.Fprintf(w,
			"# HELP gametree_shard_stage_ns Per-stage latency of traced (sampled) requests, nanoseconds.\n# TYPE gametree_shard_stage_ns histogram\n"); err != nil {
			return err
		}
		for i, stage := range stageNames {
			snap := t.hists[i].Snapshot()
			if snap.Count == 0 {
				continue
			}
			if err := promLabelledHist(w, "gametree_shard_stage_ns", "stage", stage, snap); err != nil {
				return err
			}
		}
		return nil
	}
}

// promLabelledHist writes one labelled histogram series: ascending
// cumulative le buckets up to the highest populated one, +Inf, _sum and
// _count — the internal/telemetry exposition shape with a label pair.
func promLabelledHist(w io.Writer, name, label, value string, s metrics.HistSnapshot) error {
	hi := -1
	for i, c := range s.Buckets {
		if c > 0 {
			hi = i
		}
	}
	var cum int64
	for i := 0; i <= hi; i++ {
		cum += s.Buckets[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"%d\"} %d\n",
			name, label, value, metrics.BucketUpper(i), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", name, label, value, s.Count); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_sum{%s=%q} %d\n%s_count{%s=%q} %d\n",
		name, label, value, s.Sum, name, label, value, s.Count)
	return err
}

// ctxKey carries the trace ID through a request's context chain.
type ctxKey struct{}

// NewContext returns ctx carrying the trace ID; an empty ID returns ctx
// unchanged (unsampled requests allocate no context node).
func NewContext(ctx context.Context, trace string) context.Context {
	if trace == "" {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, trace)
}

// FromContext extracts the trace ID ("" when the request is unsampled
// or the context never saw the serving layer).
func FromContext(ctx context.Context) string {
	s, _ := ctx.Value(ctxKey{}).(string)
	return s
}
