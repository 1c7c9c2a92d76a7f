package telemetry

import (
	"strings"
	"testing"
)

// TestEventLogRoundTrip: WriteEvents → ReadEvents must be the identity,
// and the JSONL lines must be self-describing (kind, worker, ns).
func TestEventLogRoundTrip(t *testing.T) {
	r := NewRecorder()
	if r.EventsEnabled() {
		t.Fatal("event log on by default")
	}
	r.RecordEvent(Event{Kind: EventSteal}) // off: must be dropped silently
	r.EnableEvents(0)
	want := []Event{
		{Ns: 10, Kind: EventSplitOpen, Worker: 0, Depth: 6, Tasks: 3},
		{Ns: 20, Kind: EventSteal, Worker: 1, Depth: 5},
		{Ns: 30, Kind: EventAbort, Worker: 1, Depth: 5},
		{Ns: 40, Kind: EventJoin, Worker: 0, Depth: 6, Tasks: 3},
	}
	for _, e := range want {
		r.RecordEvent(e)
	}
	var sb strings.Builder
	if err := r.WriteEvents(&sb); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(sb.String(), "\n"); n != len(want) {
		t.Fatalf("JSONL has %d lines, want %d:\n%s", n, len(want), sb.String())
	}
	if !strings.Contains(sb.String(), `"kind":"split-open"`) {
		t.Fatalf("JSONL missing kind field:\n%s", sb.String())
	}
	got, err := ReadEvents(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("round trip lost events: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

// TestEventLogBound: events past the cap are counted, not stored.
func TestEventLogBound(t *testing.T) {
	r := NewRecorder()
	r.EnableEvents(3)
	for i := 0; i < 10; i++ {
		r.RecordEvent(Event{Ns: int64(i), Kind: EventSteal})
	}
	events, dropped := r.Events()
	if len(events) != 3 || dropped != 7 {
		t.Fatalf("bound broken: %d stored, %d dropped", len(events), dropped)
	}
}

// TestEventTraceReplay: the Chrome-trace replay of a log must emit one
// instant event per entry, on the right worker track, in order.
func TestEventTraceReplay(t *testing.T) {
	events := []Event{
		{Ns: 1000, Kind: EventSplitOpen, Worker: 2, Depth: 4, Tasks: 3},
		{Ns: 2000, Kind: EventSteal, Worker: 0, Depth: 3},
	}
	var sb strings.Builder
	if err := WriteEventTrace(&sb, events); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, frag := range []string{
		`"name":"split-open"`, `"name":"steal"`, `"ph":"i"`,
		`"tid":2`, `"tid":0`, `"ts":1`, `"ts":2`, `"displayTimeUnit"`,
	} {
		if !strings.Contains(out, frag) {
			t.Fatalf("trace missing %s:\n%s", frag, out)
		}
	}
}

// TestNilRecorderEvents extends the nil-safety contract to the event log.
func TestNilRecorderEvents(t *testing.T) {
	var r *Recorder
	if r.EventsEnabled() {
		t.Fatal("nil recorder claims events on")
	}
	r.EnableEvents(5)
	r.RecordEvent(Event{Kind: EventJoin})
	if events, dropped := r.Events(); events != nil || dropped != 0 {
		t.Fatal("nil recorder stored events")
	}
	var sb strings.Builder
	if err := r.WriteEvents(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil recorder WriteEvents: err=%v out=%q", err, sb.String())
	}
}
