package tracecheck

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

const validDoc = `{"displayTimeUnit":"ms","traceEvents":[
{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"ibcbench"}},
{"ph":"X","pid":1,"tid":1,"ts":0,"dur":5,"name":"block","cat":"sim"},
{"ph":"i","pid":1,"tid":1,"ts":2,"name":"clear","cat":"sim"},
{"ph":"b","pid":1,"tid":2,"ts":1,"name":"pkt","cat":"pkt","id":"0x1"},
{"ph":"n","pid":1,"tid":2,"ts":2,"name":"recv","cat":"pkt","id":"0x1"},
{"ph":"e","pid":1,"tid":2,"ts":3,"name":"pkt","cat":"pkt","id":"0x1"}
]}
`

func TestValidateAcceptsWellFormed(t *testing.T) {
	stats, err := Validate([]byte(validDoc))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events != 6 {
		t.Fatalf("Events = %d, want 6", stats.Events)
	}
	if got := stats.PhaseList(); got != "M=1 X=1 b=1 e=1 i=1 n=1" {
		t.Fatalf("PhaseList = %q", got)
	}
}

// TestValidateLocatesFirstViolation pins the line/offset reporting: the
// exporter writes one event per line, so the error must name the exact
// line of the first offending event.
func TestValidateLocatesFirstViolation(t *testing.T) {
	doc := `{"traceEvents":[
{"ph":"X","ts":0,"dur":1,"name":"ok"},
{"ph":"X","ts":1,"dur":-2,"name":"bad"},
{"ph":"Q","ts":2,"name":"never-reached"}
]}`
	_, err := Validate([]byte(doc))
	var verr *Error
	if !errors.As(err, &verr) {
		t.Fatalf("error type %T: %v", err, err)
	}
	if verr.Index != 1 || verr.Line != 3 || verr.Name != "bad" {
		t.Fatalf("violation at index %d line %d name %q, want 1/3/bad (%v)", verr.Index, verr.Line, verr.Name, err)
	}
	if verr.Offset <= 0 || doc[verr.Offset] != '{' {
		t.Fatalf("offset %d does not point at the event start", verr.Offset)
	}
	for _, want := range []string{"line 3", "offset", "negative ts/dur"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q misses %q", err, want)
		}
	}
}

func TestValidateRejectsBrokenDocs(t *testing.T) {
	cases := map[string]string{
		"not-json":             `{"traceEvents": [`,
		"not-object":           `[1, 2]`,
		"no-events-key":        `{"displayTimeUnit": "ms"}`,
		"empty":                `{"traceEvents": []}`,
		"unknown-phase":        `{"traceEvents": [{"name":"x","ph":"Q","ts":0}]}`,
		"negative-dur":         `{"traceEvents": [{"name":"x","ph":"X","ts":1,"dur":-2}]}`,
		"negative-ts":          `{"traceEvents": [{"name":"x","ph":"i","ts":-1}]}`,
		"id-less-async":        `{"traceEvents": [{"name":"p","ph":"b","cat":"pkt","ts":0}]}`,
		"unbalanced":           `{"traceEvents": [{"name":"p","ph":"b","cat":"pkt","id":"0x1","ts":0}]}`,
		"end-no-begin":         `{"traceEvents": [{"name":"p","ph":"e","cat":"pkt","id":"0x1","ts":0}]}`,
		"orphan-async":         `{"traceEvents": [{"name":"p","ph":"n","cat":"pkt","id":"0x1","ts":0}]}`,
		"instant-negative-dur": `{"traceEvents": [{"name":"x","ph":"i","ts":1,"dur":-2}]}`,
		"ts-regression": `{"traceEvents": [
{"name":"a","ph":"X","tid":1,"ts":5,"dur":1},
{"name":"b","ph":"X","tid":1,"ts":4,"dur":1}]}`,
	}
	for name, doc := range cases {
		if _, err := Validate([]byte(doc)); err == nil {
			t.Errorf("%s: validator accepted a broken document", name)
		}
	}
}

// TestValidateUnbalancedPointsAtBegin: a leaked async span is reported
// at the begin event that never closed, not at end-of-file.
func TestValidateUnbalancedPointsAtBegin(t *testing.T) {
	doc := `{"traceEvents":[
{"ph":"b","cat":"pkt","id":"0x1","ts":0,"name":"closed"},
{"ph":"e","cat":"pkt","id":"0x1","ts":1,"name":"closed"},
{"ph":"b","cat":"pkt","id":"0x2","ts":2,"name":"leaked"}
]}`
	_, err := Validate([]byte(doc))
	var verr *Error
	if !errors.As(err, &verr) {
		t.Fatalf("error type %T: %v", err, err)
	}
	if verr.Index != 2 || verr.Line != 4 || verr.Name != "leaked" {
		t.Fatalf("leak reported at index %d line %d name %q, want 2/4/leaked", verr.Index, verr.Line, verr.Name)
	}
}

// TestValidateTSMonotonicPerTrack: timestamps may interleave across
// tracks, but within one tid they must never decrease; the violation is
// reported with the event's line and byte offset like every other.
func TestValidateTSMonotonicPerTrack(t *testing.T) {
	ok := `{"traceEvents":[
{"ph":"X","tid":1,"ts":0,"dur":1,"name":"a"},
{"ph":"X","tid":2,"ts":9,"dur":1,"name":"b"},
{"ph":"X","tid":1,"ts":0,"dur":1,"name":"c"},
{"ph":"X","tid":2,"ts":9,"dur":1,"name":"d"}
]}`
	if _, err := Validate([]byte(ok)); err != nil {
		t.Fatalf("interleaved tracks rejected: %v", err)
	}
	bad := `{"traceEvents":[
{"ph":"X","tid":1,"ts":5,"dur":1,"name":"first"},
{"ph":"M","tid":1,"name":"thread_name","args":{"name":"late metadata is fine"}},
{"ph":"X","tid":1,"ts":4,"dur":1,"name":"rewound"}
]}`
	_, err := Validate([]byte(bad))
	var verr *Error
	if !errors.As(err, &verr) {
		t.Fatalf("error type %T: %v", err, err)
	}
	if verr.Index != 2 || verr.Line != 4 || verr.Name != "rewound" {
		t.Fatalf("violation at index %d line %d name %q, want 2/4/rewound (%v)", verr.Index, verr.Line, verr.Name, err)
	}
	if verr.Offset <= 0 || bad[verr.Offset] != '{' {
		t.Fatalf("offset %d does not point at the event start", verr.Offset)
	}
	if !strings.Contains(err.Error(), "decreases") {
		t.Fatalf("error %q does not mention the ts decrease", err)
	}
}

// TestValidateNegativeDurAllPhases: negative durations are rejected on
// every timing phase, not just complete spans.
func TestValidateNegativeDurAllPhases(t *testing.T) {
	for _, ph := range []string{"i", "b", "n", "e"} {
		doc := `{"traceEvents":[
{"ph":"b","cat":"pkt","id":"0x1","ts":0,"name":"open"},
{"ph":"` + ph + `","cat":"pkt","id":"0x1","ts":1,"dur":-3,"name":"bad"},
{"ph":"e","cat":"pkt","id":"0x1","ts":2,"name":"open"}
]}`
		_, err := Validate([]byte(doc))
		var verr *Error
		if !errors.As(err, &verr) {
			t.Fatalf("phase %s: error type %T: %v", ph, err, err)
		}
		if verr.Name != "bad" || !strings.Contains(verr.Msg, "negative dur") {
			t.Fatalf("phase %s: got %v, want negative-dur at event %q", ph, err, "bad")
		}
	}
}

// TestEventsStreamsDocumentOrder: the exported streaming reader hands
// every event to the callback in document order with its location, and
// surfaces metadata args (traceview resolves tid → track names from
// thread_name rows).
func TestEventsStreamsDocumentOrder(t *testing.T) {
	var names []string
	var lines []int
	err := Events([]byte(validDoc), func(ev Event, index, line int, offset int64) error {
		names = append(names, ev.Name)
		lines = append(lines, line)
		if index == 0 {
			if ev.Phase != "M" || ev.Args.Name != "ibcbench" {
				t.Fatalf("metadata args not decoded: %+v", ev)
			}
		}
		if validDoc[offset] != '{' {
			t.Fatalf("event %d offset %d does not point at the event start", index, offset)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"process_name", "block", "clear", "pkt", "recv", "pkt"}
	if len(names) != len(want) {
		t.Fatalf("streamed %d events, want %d", len(names), len(want))
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("event %d name %q, want %q", i, names[i], n)
		}
		if lines[i] != i+2 {
			t.Fatalf("event %d line %d, want %d", i, lines[i], i+2)
		}
	}
}

// TestValidateNestedAsyncSameKey: reopening the same (cat, id) nests;
// each begin needs its own end.
func TestValidateNestedAsyncSameKey(t *testing.T) {
	doc := `{"traceEvents":[
{"ph":"b","cat":"pkt","id":"0x1","ts":0,"name":"outer"},
{"ph":"b","cat":"pkt","id":"0x1","ts":1,"name":"inner"},
{"ph":"e","cat":"pkt","id":"0x1","ts":2,"name":"inner"},
{"ph":"e","cat":"pkt","id":"0x1","ts":3,"name":"outer"}
]}`
	if _, err := Validate([]byte(doc)); err != nil {
		t.Fatal(err)
	}
}

// TestValidateLargeTraceLinear: a real bench workload's trace holds
// hundreds of thousands of events, one per line. Locating each event
// must not rescan the document from the start, or validation turns
// quadratic and a 69 MB trace runs for minutes. The violation planted
// on the last event must still carry its exact line and offset.
func TestValidateLargeTraceLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 300k-event trace")
	}
	const n = 300_000
	var doc strings.Builder
	doc.WriteString(`{"displayTimeUnit":"ms","traceEvents":[` + "\n")
	for i := 0; i < n-1; i++ {
		fmt.Fprintf(&doc, `{"ph":"X","pid":1,"tid":%d,"ts":%d,"dur":1,"name":"block","cat":"sim"},`+"\n", i%4, i)
	}
	lastOffset := doc.Len()
	doc.WriteString(`{"ph":"X","pid":1,"tid":1,"ts":0,"dur":1,"name":"rewound","cat":"sim"}` + "\n]}\n")

	done := make(chan error, 1)
	go func() {
		_, err := Validate([]byte(doc.String()))
		done <- err
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("Validate on %d events still running after 60s", n)
	}
	var verr *Error
	if !errors.As(err, &verr) {
		t.Fatalf("error type %T: %v", err, err)
	}
	if verr.Index != n-1 || verr.Line != n+1 || verr.Offset != int64(lastOffset) || verr.Name != "rewound" {
		t.Fatalf("violation at index %d line %d offset %d name %q, want %d/%d/%d/rewound",
			verr.Index, verr.Line, verr.Offset, verr.Name, n-1, n+1, lastOffset)
	}
}
