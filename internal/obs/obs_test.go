package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestTracerInterning(t *testing.T) {
	tr := NewTracer()
	a := tr.Track("chain/ibc-0")
	b := tr.Track("chain/ibc-1")
	if a == b {
		t.Fatalf("distinct tracks interned to the same ID %d", a)
	}
	if got := tr.Track("chain/ibc-0"); got != a {
		t.Fatalf("re-interning track: got %d want %d", got, a)
	}
	n := tr.Name("block")
	if got := tr.Name("block"); got != n {
		t.Fatalf("re-interning name: got %d want %d", got, n)
	}
	if tr.NameString(n) != "block" {
		t.Fatalf("NameString(%d) = %q", n, tr.NameString(n))
	}
}

func TestTracerRecordsEvents(t *testing.T) {
	tr := NewTracer()
	track := tr.Track("chain/ibc-0")
	name := tr.Name("block")

	tr.CompleteArg(track, name, 100*time.Millisecond, 150*time.Millisecond, 3)
	tr.InstantArg(track, tr.Name("fault"), 200*time.Millisecond, 7)
	tr.AsyncBegin(42, track, tr.Name("pkt"), 210*time.Millisecond)
	tr.AsyncEnd(42, track, tr.Name("pkt"), 220*time.Millisecond)

	if tr.Len() != 4 {
		t.Fatalf("Len() = %d, want 4", tr.Len())
	}
	var evs []Event
	tr.Events(func(ev Event) { evs = append(evs, ev) })
	if evs[0].Phase != PhaseComplete || evs[0].TS != 100*time.Millisecond || evs[0].Dur != 50*time.Millisecond ||
		!evs[0].HasArg || evs[0].Arg != 3 {
		t.Fatalf("span event = %+v", evs[0])
	}
	if evs[1].Phase != PhaseInstant || !evs[1].HasArg || evs[1].Arg != 7 {
		t.Fatalf("instant event = %+v", evs[1])
	}
	if evs[2].Phase != PhaseAsyncBegin || evs[2].ID != 42 {
		t.Fatalf("async begin = %+v", evs[2])
	}
}

// TestNilSafety pins that a nil tracer/registry accepts every recording
// call — disabled runs instrument unconditionally through nil pointers.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	track := tr.Track("x")
	name := tr.Name("y")
	tr.CompleteArg(track, name, 0, time.Second, 1)
	tr.Instant(track, name, 0)
	tr.AsyncBegin(1, track, name, 0)
	tr.Events(func(Event) { t.Fatal("nil tracer has events") })
	if tr.Len() != 0 {
		t.Fatal("nil tracer not empty")
	}

	var reg *Registry
	reg.Counter("c").Set(1)
	reg.Histogram("h").Observe(2)
	reg.SetCounter("c", 3)
	if reg.Snapshot() != nil {
		t.Fatal("nil registry snapshot not nil")
	}
}

// TestSpanRecordSteadyStateAllocs pins the zero-alloc recording
// guarantee on hot paths: spans, instants and async events allocate
// nothing once the current chunk has room. The tracer is pre-warmed past
// the first chunk allocation and the loop stays far from a boundary
// (chunkSize is 8192; the test records under 700 events).
func TestSpanRecordSteadyStateAllocs(t *testing.T) {
	tr := NewTracer()
	track := tr.Track("chain/ibc-0")
	name := tr.Name("block")
	for i := 0; i < 64; i++ {
		tr.CompleteArg(track, name, 0, time.Microsecond, uint64(i))
	}
	var now time.Duration
	allocs := testing.AllocsPerRun(200, func() {
		now += time.Microsecond
		tr.CompleteArg(track, name, now, now+time.Microsecond, 1)
		tr.InstantArg(track, name, now, 1)
		tr.AsyncInstant(1, track, name, now)
	})
	if allocs != 0 {
		t.Fatalf("steady-state span recording allocates %.1f/op, want 0", allocs)
	}
}

func TestChunkBoundary(t *testing.T) {
	tr := NewTracer()
	track := tr.Track("t")
	name := tr.Name("n")
	total := chunkSize*2 + 17
	for i := 0; i < total; i++ {
		tr.Instant(track, name, time.Duration(i))
	}
	if tr.Len() != total {
		t.Fatalf("Len() = %d, want %d", tr.Len(), total)
	}
	i := 0
	tr.Events(func(ev Event) {
		if ev.TS != time.Duration(i) {
			t.Fatalf("event %d out of order: ts=%v", i, ev.TS)
		}
		i++
	})
	if i != total {
		t.Fatalf("visited %d events, want %d", i, total)
	}
}

func TestChromeWriterValidJSON(t *testing.T) {
	tr := NewTracer()
	track := tr.Track(`chain/we"ird\name`)
	name := tr.Name("block")
	tr.CompleteArg(track, name, 100*time.Millisecond, 150*time.Millisecond, 3)
	tr.Instant(track, tr.Name("fault"), 200*time.Millisecond)
	tr.AsyncBegin(0xabc, track, tr.Name("pkt"), 210*time.Millisecond)
	tr.AsyncInstant(0xabc, track, tr.Name("Recv build"), 215*time.Millisecond)
	tr.AsyncEnd(0xabc, track, tr.Name("pkt"), 220*time.Millisecond)

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.String())
	}
	// 2 metadata (process + 1 thread) + 5 recorded events.
	if len(doc.TraceEvents) != 7 {
		t.Fatalf("got %d trace events, want 7", len(doc.TraceEvents))
	}
	var x map[string]any
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" {
			x = ev
		}
	}
	if x == nil {
		t.Fatal("no complete event in output")
	}
	if x["ts"].(float64) != 100000 || x["dur"].(float64) != 50000 {
		t.Fatalf("complete event ts/dur = %v/%v, want 100000/50000 µs", x["ts"], x["dur"])
	}
	if x["args"].(map[string]any)["v"].(float64) != 3 {
		t.Fatalf("complete event args = %v", x["args"])
	}
}

func TestChromeWriterDeterministic(t *testing.T) {
	build := func() []byte {
		tr := NewTracer()
		track := tr.Track("chain/ibc-0")
		for i := 0; i < 100; i++ {
			tr.CompleteArg(track, tr.Name("block"), time.Duration(i)*time.Second,
				time.Duration(i)*time.Second+time.Millisecond, uint64(i))
		}
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("identical recordings produced different chrome documents")
	}
}
