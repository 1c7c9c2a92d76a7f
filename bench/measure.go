package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gametree/internal/engine"
	"gametree/internal/games"
	"gametree/internal/serve"
	"gametree/internal/stats"
)

// suite is what set-up produces for one workload: the fixed op list, the
// parsed positions (per key) and the expected answers.
type suite struct {
	w         workload
	seed      int64
	ops       []op
	positions []engine.Position // by key
	// expect holds one answer per key: unknownAnswer until a reference or
	// the first reply fills it, after which every reply must equal it.
	expect []atomic.Int64
	// W is the compute-worker count of a wide round, min(nproc, 4).
	W int
	// refNs and refNodes time the engine.Search reference answers; they
	// are the sequential search-body sample of the per-layer report.
	refNs, refNodes int64

	failLog atomic.Int32 // failures printed so far
}

const unknownAnswer = math.MinInt64

// Solve verdicts, coded into the same slots as search values.
const (
	answerDisproven = 0
	answerProven    = 1
)

func verdictCode(v string) int64 {
	switch v {
	case "proven":
		return answerProven
	case "disproven":
		return answerDisproven
	}
	return -1 // "unknown": a partial solve, never an expected answer
}

// sampled reports whether key is in the seeded 1-in-8 reference sample.
func sampled(seed int64, key int) bool {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(key)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return x%8 == 0
}

// setUp builds everything a round needs that is not the system under
// test: op list, parsed positions, reference answers. Searches get a
// seeded 1-in-8 sample of engine.Search values (the rest are pinned by the
// first reply and must then repeat on every round, wide and narrow);
// solves get every verdict from Sprague-Grundy theory. It then boots the
// workload's system once and runs 5% of a round through it, so that lazy
// initialisation (listeners, ring membership, pool goroutines, the HTTP
// client) is paid here and shows in setup_s.
func setUp(w workload, seed int64, smoke bool) (*suite, error) {
	s := &suite{w: w, seed: seed, ops: buildOps(w, seed, smoke), W: wideWorkers()}
	n := numKeys(s.ops)
	s.positions = make([]engine.Position, n)
	s.expect = make([]atomic.Int64, n)
	for i := range s.expect {
		s.expect[i].Store(unknownAnswer)
	}
	for _, o := range s.ops {
		if s.positions[o.Key] != nil {
			continue
		}
		pos, _, err := serve.ParsePosition(o.Game, o.Pos)
		if err != nil {
			return nil, fmt.Errorf("workload %s: op %s %q: %w", w.name, o.Game, o.Pos, err)
		}
		s.positions[o.Key] = pos
		switch p := pos.(type) {
		case games.Nim:
			s.expect[o.Key].Store(boolCode(p.XorValue() != 0))
		case games.Kayles:
			s.expect[o.Key].Store(boolCode(p.GrundyValue() != 0))
		default:
			if sampled(seed, o.Key) {
				t0 := time.Now()
				res := engine.Search(pos, o.Depth)
				s.refNs += time.Since(t0).Nanoseconds()
				s.refNodes += res.Nodes
				s.expect[o.Key].Store(int64(res.Value))
			}
		}
	}

	e, err := s.startEnv(s.wide())
	if err != nil {
		return nil, err
	}
	warm := s.ops[:max(len(s.ops)/20, 1)]
	r := s.runRound(e, warm, false)
	e.close()
	if r.failed > 0 {
		return nil, fmt.Errorf("workload %s: %d of %d warm-up operations failed", w.name, r.failed, len(warm))
	}
	return s, nil
}

// wide and narrow are the two round shapes. Library rounds have one
// caller at either width: a Pool runs one search at a time, and its
// parallelism is inside the search.
func (s *suite) wide() envOpts {
	if s.w.kind == "lib" {
		return envOpts{workers: s.W, callers: 1}
	}
	return envOpts{workers: s.W, callers: s.W}
}

func (s *suite) narrow() envOpts { return envOpts{workers: 1, callers: 1} }

func boolCode(b bool) int64 {
	if b {
		return answerProven
	}
	return answerDisproven
}

// check compares a reply with the key's expected answer, pinning it when
// the key has none yet.
func (s *suite) check(o op, r reply) bool {
	got := int64(r.value)
	if s.w.kind == "solve" {
		got = verdictCode(r.verdict)
	}
	slot := &s.expect[o.Key]
	for {
		cur := slot.Load()
		if cur != unknownAnswer {
			return cur == got
		}
		if slot.CompareAndSwap(unknownAnswer, got) {
			return true
		}
	}
}

// sample is one op's outcome in one round.
type sample struct {
	ok                 bool
	latMs              float64 // call to verified answer
	doneMs             float64 // when the answer was verified, since the round began
	queueMs, elapsedMs float64
	cached, coalesced  bool
	nodes, expands     int64
}

// round is the outcome of running an op list once.
type round struct {
	wall    time.Duration
	cpu     time.Duration // user+sys of the whole process, load generator included
	samples []sample      // by op index
	ok      int
	failed  int
	origin  time.Time
	bufs    []*spanBuf // traced rounds only
}

func (r round) opsPerSec() float64 { return float64(r.ok) / r.wall.Seconds() }

func (r round) cpuMsPerOp() float64 {
	return ratio(float64(r.cpu.Nanoseconds())/1e6, float64(r.ok))
}

// latencies returns the latency of every successful op, in ms.
func (r round) latencies() []float64 {
	lat := make([]float64, 0, r.ok)
	for _, sm := range r.samples {
		if sm.ok {
			lat = append(lat, sm.latMs)
		}
	}
	return lat
}

func (r round) p50() float64 { return stats.Quantile(r.latencies(), 0.50) }
func (r round) p95() float64 { return stats.Quantile(r.latencies(), 0.95) }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runRound sends ops through e with e.callers closed-loop callers: each
// takes the next unsent op, waits for its verified answer, and only then
// takes another. A failed op (error, non-200, or wrong answer) is counted
// and contributes no latency sample.
func (s *suite) runRound(e *env, ops []op, traced bool) round {
	// Collect the previous round's garbage (its table, server and
	// buffers) outside the timed region, so every round starts from the
	// same heap.
	runtime.GC()
	r := round{samples: make([]sample, len(ops))}
	var next atomic.Int64
	var wg sync.WaitGroup
	if traced {
		r.bufs = make([]*spanBuf, e.callers)
		for c := range r.bufs {
			r.bufs[c] = &spanBuf{caller: c, spans: make([]span, 0, 6*len(ops)/e.callers+6)}
		}
	}
	cpu0 := cpuTime()
	r.origin = time.Now()
	for c := 0; c < e.callers; c++ {
		var sb *spanBuf
		if traced {
			sb = r.bufs[c]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				o := ops[i]
				t0 := time.Now()
				root := sb.begin("op", -1, i)
				rep, err := e.call(i, o, sb, root)
				v := sb.begin("verify", root, i)
				ok := err == nil && s.check(o, rep)
				sb.end(v)
				sb.end(root)
				lat := time.Since(t0)
				if !ok {
					s.logFailure(o, rep, err)
					continue
				}
				r.samples[i] = sample{
					ok: true, latMs: float64(lat.Nanoseconds()) / 1e6,
					doneMs:  float64(t0.Add(lat).Sub(r.origin).Nanoseconds()) / 1e6,
					queueMs: rep.queueMs, elapsedMs: rep.elapsedMs,
					cached: rep.cached, coalesced: rep.coalesced,
					nodes: rep.nodes, expands: rep.expands,
				}
			}
		}()
	}
	wg.Wait()
	r.wall = time.Since(r.origin)
	r.cpu = cpuTime() - cpu0
	for _, sm := range r.samples {
		if sm.ok {
			r.ok++
		}
	}
	r.failed = len(ops) - r.ok
	return r
}

func (s *suite) logFailure(o op, rep reply, err error) {
	if s.failLog.Add(1) > 5 {
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %s %q depth %d failed: %v\n", s.w.name, o.Game, o.Pos, o.Depth, err)
		return
	}
	fmt.Fprintf(os.Stderr, "bench: %s: %s %q depth %d: wrong answer (value %d verdict %q, expected code %d)\n",
		s.w.name, o.Game, o.Pos, o.Depth, rep.value, rep.verdict, s.expect[o.Key].Load())
}

// roundsFor runs fresh-environment rounds over ops until budget has been
// spent and at least minRounds are done. Rounds are sized by op count; the
// budget only decides how many of them a run affords.
func (s *suite) roundsFor(o envOpts, ops []op, budget time.Duration, minRounds int) ([]round, error) {
	var out []round
	start := time.Now()
	for len(out) < minRounds || time.Since(start) < budget {
		e, err := s.startEnv(o)
		if err != nil {
			return nil, err
		}
		out = append(out, s.runRound(e, ops, false))
		e.close()
	}
	return out, nil
}

// narrowOps is the first third of the list: the ops a narrow round (one
// compute worker, one caller) repeats.
func (s *suite) narrowOps() []op { return s.ops[:max(len(s.ops)/3, 1)] }

func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }

// Which way a per-round statistic is better.
const (
	higher = true
	lower  = false
)

// overRounds condenses a per-round statistic into the run's value: the
// quartile of the rounds on the better side (upper for a rate, lower for a
// time). Each round does identical work, and a busy host (a shared core,
// a neighbour's burst, the harness itself) only ever slows a round down,
// never speeds it up, so the rounds scatter to the slow side of what the
// program can do. The better quartile stays put while up to three quarters
// of the rounds are disturbed; the median moves as soon as half are, and
// on the two-core hosts this runs on they often are.
func overRounds(rounds []round, better bool, f func(round) float64) float64 {
	xs := perRound(rounds, f)
	if better == higher {
		return stats.Quantile(xs, 0.75)
	}
	return stats.Quantile(xs, 0.25)
}

func tally(rounds ...[]round) (attempted, failed int) {
	for _, rs := range rounds {
		for _, r := range rs {
			attempted += len(r.samples)
			failed += r.failed
		}
	}
	return
}

// okIn counts the operations of rounds that were answered correctly.
func okIn(rounds []round) int {
	attempted, failed := tally(rounds)
	return attempted - failed
}

func perRound(rounds []round, f func(round) float64) []float64 {
	xs := make([]float64, len(rounds))
	for i, r := range rounds {
		xs[i] = f(r)
	}
	return xs
}
