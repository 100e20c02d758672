// Chrome trace-event export: the JSON Object Format ({"traceEvents":
// [...]}) understood by Perfetto and chrome://tracing. The writer is
// hand-rolled so the byte stream is fully deterministic — fixed field
// order, fixed float formatting — and a same-seed rerun produces an
// identical file.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
)

// WriteChrome writes every recorded event as Chrome trace-event JSON.
// Tracks become threads of a single process (pid 1) named after their
// registered names; virtual timestamps map to microseconds with
// nanosecond precision. Complete/instant events carry category "sim",
// async flows category "pkt" (the viewer scopes async IDs per
// category).
//
// Events are emitted in a canonical total order — (TS, phase, track,
// name, id, arg, dur) — rather than recording order, so two runs that
// record the same multiset of events produce byte-identical documents
// even when the recording interleaving differs.
func (t *Tracer) WriteChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	first := true
	sep := func() {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
	}
	sep()
	bw.WriteString(`{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"ibcbench"}}`)
	if t != nil {
		for id, name := range t.tracks {
			sep()
			fmt.Fprintf(bw, `{"ph":"M","pid":1,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
				id+1, quoteJSON(name))
		}
		for _, ev := range t.canonicalEvents() {
			sep()
			writeChromeEvent(bw, t, ev)
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// canonicalEvents collects every recorded event sorted by the canonical
// total key. The key covers every Event field, so the order depends
// only on the multiset of events, never on recording order.
func (t *Tracer) canonicalEvents() []Event {
	evs := make([]Event, 0, t.Len())
	t.Events(func(ev Event) { evs = append(evs, ev) })
	sort.Slice(evs, func(i, j int) bool { return eventLess(evs[i], evs[j]) })
	return evs
}

// phaseRank fixes an arbitrary but stable ordering between phases that
// share a timestamp: begins sort before the activity they bracket, ends
// after.
func phaseRank(p byte) int {
	switch p {
	case PhaseAsyncBegin:
		return 0
	case PhaseComplete:
		return 1
	case PhaseInstant:
		return 2
	case PhaseAsyncInstant:
		return 3
	case PhaseAsyncEnd:
		return 4
	}
	return 5
}

func eventLess(a, b Event) bool {
	if a.TS != b.TS {
		return a.TS < b.TS
	}
	if ra, rb := phaseRank(a.Phase), phaseRank(b.Phase); ra != rb {
		return ra < rb
	}
	if a.Track != b.Track {
		return a.Track < b.Track
	}
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	if a.ID != b.ID {
		return a.ID < b.ID
	}
	if a.Arg != b.Arg {
		return a.Arg < b.Arg
	}
	if a.Dur != b.Dur {
		return a.Dur < b.Dur
	}
	return a.HasArg && !b.HasArg
}

func writeChromeEvent(bw *bufio.Writer, t *Tracer, ev Event) {
	bw.WriteString(`{"ph":"`)
	bw.WriteByte(ev.Phase)
	bw.WriteString(`","pid":1,"tid":`)
	bw.WriteString(strconv.Itoa(int(ev.Track) + 1))
	bw.WriteString(`,"ts":`)
	writeMicros(bw, ev.TS)
	if ev.Phase == PhaseComplete {
		bw.WriteString(`,"dur":`)
		writeMicros(bw, ev.Dur)
	}
	switch ev.Phase {
	case PhaseAsyncBegin, PhaseAsyncInstant, PhaseAsyncEnd:
		bw.WriteString(`,"cat":"pkt","id":"0x`)
		bw.WriteString(strconv.FormatUint(ev.ID, 16))
		bw.WriteString(`"`)
	default:
		bw.WriteString(`,"cat":"sim"`)
	}
	if ev.Phase == PhaseInstant {
		bw.WriteString(`,"s":"t"`) // thread-scoped instant
	}
	bw.WriteString(`,"name":`)
	bw.WriteString(quoteJSON(t.NameString(ev.Name)))
	if ev.HasArg {
		bw.WriteString(`,"args":{"v":`)
		bw.WriteString(strconv.FormatUint(ev.Arg, 10))
		bw.WriteString(`}`)
	}
	bw.WriteString(`}`)
}

// writeMicros renders a virtual duration as microseconds with fixed
// three-decimal (nanosecond) precision.
func writeMicros(bw *bufio.Writer, d time.Duration) {
	ns := d.Nanoseconds()
	neg := ns < 0
	if neg {
		ns = -ns
		bw.WriteByte('-')
	}
	bw.WriteString(strconv.FormatInt(ns/1000, 10))
	bw.WriteByte('.')
	frac := ns % 1000
	bw.WriteByte(byte('0' + frac/100))
	bw.WriteByte(byte('0' + frac/10%10))
	bw.WriteByte(byte('0' + frac%10))
}

// quoteJSON escapes a name for embedding as a JSON string. Names are
// ASCII identifiers in practice; the escaper still covers quotes,
// backslashes and control bytes for safety.
func quoteJSON(s string) string {
	out := make([]byte, 0, len(s)+2)
	out = append(out, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			out = append(out, '\\', c)
		case c < 0x20:
			out = append(out, fmt.Sprintf(`\u%04x`, c)...)
		default:
			out = append(out, c)
		}
	}
	return string(append(out, '"'))
}
