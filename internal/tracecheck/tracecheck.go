// Package tracecheck structurally validates Chrome trace-event
// documents (the `ibcbench trace -out` export format): JSON shape, span timing, and
// async begin/end balance. The checker streams the traceEvents array
// with a json.Decoder so a violation is reported with the event's
// index, line and byte offset — the exporter writes one event per line,
// making the line number directly actionable. It is shared by the CLI's
// `trace -validate` command, the experiment service (which validates
// every trace at ingest time and badges invalid ones), and the
// traceview analytics engine, which re-parses stored traces through the
// same streaming reader.
package tracecheck

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// EventArgs carries the optional per-event argument object: metadata
// names (process_name/thread_name rows) and the exporter's numeric
// counter payload.
type EventArgs struct {
	Name string  `json:"name"`
	V    float64 `json:"v"`
}

// Event mirrors the subset of the Chrome trace-event schema the
// validator and the traceview reader consume.
type Event struct {
	Name  string    `json:"name"`
	Phase string    `json:"ph"`
	TS    float64   `json:"ts"`
	Dur   float64   `json:"dur"`
	Cat   string    `json:"cat"`
	ID    string    `json:"id"`
	PID   int       `json:"pid"`
	TID   int       `json:"tid"`
	Args  EventArgs `json:"args"`
}

// Error is one structural violation, located at the first offending
// event. Index is the event's ordinal in traceEvents (-1 when the
// violation is not tied to a single event), Line/Offset locate it in
// the document bytes (1-based line, 0-based byte offset; 0/-1 when
// unknown).
type Error struct {
	Index  int
	Line   int
	Offset int64
	Name   string
	Msg    string
}

func (e *Error) Error() string {
	loc := ""
	if e.Line > 0 {
		loc = fmt.Sprintf(" at line %d (offset %d)", e.Line, e.Offset)
	}
	if e.Index >= 0 {
		return fmt.Sprintf("event %d (%s)%s: %s", e.Index, e.Name, loc, e.Msg)
	}
	return e.Msg + loc
}

// Stats summarizes a valid document.
type Stats struct {
	Events int
	Phases map[string]int
}

// PhaseList renders the per-phase counts sorted by phase ("X=12 b=3").
func (s Stats) PhaseList() string {
	phases := make([]string, 0, len(s.Phases))
	for ph := range s.Phases {
		phases = append(phases, ph)
	}
	sort.Strings(phases)
	var buf bytes.Buffer
	for i, ph := range phases {
		if i > 0 {
			buf.WriteByte(' ')
		}
		fmt.Fprintf(&buf, "%s=%d", ph, s.Phases[ph])
	}
	return buf.String()
}

// loc converts a decoder offset (which points just past the previous
// token) into the 1-based line and offset of the next non-separator
// byte — the start of the element about to be decoded.
func loc(data []byte, off int64) (int, int64) {
	i := off
	for i < int64(len(data)) {
		switch data[i] {
		case ' ', '\t', '\r', '\n', ',', '[', ':':
			i++
			continue
		}
		break
	}
	return 1 + bytes.Count(data[:i], []byte{'\n'}), i
}

// Events streams every element of the document's traceEvents array to
// fn in document order, passing each event's ordinal index, 1-based
// line, and byte offset. Document-structure problems (not JSON, no
// traceEvents key, malformed array) are returned as *Error; an error
// from fn aborts the stream and is returned unchanged. Event-level
// timing semantics are fn's business — Validate layers them on top.
func Events(data []byte, fn func(ev Event, index, line int, offset int64) error) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	syntax := func(err error) error {
		off := int64(-1)
		if serr, ok := err.(*json.SyntaxError); ok {
			off = serr.Offset
		}
		line := 0
		if off >= 0 {
			line = 1 + bytes.Count(data[:min(off, int64(len(data)))], []byte{'\n'})
		}
		return &Error{Index: -1, Line: line, Offset: off, Msg: fmt.Sprintf("not a trace-event document: %v", err)}
	}
	tok, err := dec.Token()
	if err != nil {
		return syntax(err)
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return &Error{Index: -1, Msg: fmt.Sprintf("not a trace-event document: top-level %v, want object", tok)}
	}
	sawEvents := false
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return syntax(err)
		}
		key, _ := keyTok.(string)
		if key != "traceEvents" {
			var skip json.RawMessage
			if err := dec.Decode(&skip); err != nil {
				return syntax(err)
			}
			continue
		}
		sawEvents = true
		if tok, err := dec.Token(); err != nil {
			return syntax(err)
		} else if d, ok := tok.(json.Delim); !ok || d != '[' {
			return &Error{Index: -1, Msg: fmt.Sprintf("traceEvents is %v, want array", tok)}
		}
		for i := 0; dec.More(); i++ {
			off := dec.InputOffset()
			var ev Event
			if err := dec.Decode(&ev); err != nil {
				return syntax(err)
			}
			line, at := loc(data, off)
			if err := fn(ev, i, line, at); err != nil {
				return err
			}
		}
		if tok, err := dec.Token(); err != nil { // closing ']'
			return syntax(err)
		} else if d, ok := tok.(json.Delim); !ok || d != ']' {
			return &Error{Index: -1, Msg: fmt.Sprintf("traceEvents terminated by %v", tok)}
		}
	}
	if tok, err := dec.Token(); err != nil { // closing '}'
		return syntax(err)
	} else if d, ok := tok.(json.Delim); !ok || d != '}' {
		return &Error{Index: -1, Msg: fmt.Sprintf("document terminated by %v", tok)}
	}
	if !sawEvents {
		return &Error{Index: -1, Msg: "no trace events"}
	}
	return nil
}

// openSpan remembers where an async span began, so an unbalanced trace
// is reported at its opening event.
type openSpan struct {
	index  int
	line   int
	offset int64
	name   string
	cat    string
	id     string
}

// Validate structurally checks a trace-event document: the bytes must
// parse as the JSON Object Format ({"traceEvents": [...]}), complete
// spans need non-negative timestamps and durations, no event may carry
// a negative dur, timestamps must be non-decreasing per track (tid) —
// the exporter's canonical order guarantees it — and every async trace
// must open and close in order on each (cat, id) pair. The first
// violation is returned as an *Error carrying the offending event's
// index, line and byte offset.
func Validate(data []byte) (Stats, error) {
	stats := Stats{Phases: map[string]int{}}
	type asyncKey struct{ cat, id string }
	open := map[asyncKey][]openSpan{}
	lastTS := map[int]float64{}
	err := Events(data, func(ev Event, i, line int, off int64) error {
		stats.Events++
		stats.Phases[ev.Phase]++
		fail := func(format string, args ...any) error {
			return &Error{Index: i, Line: line, Offset: off, Name: ev.Name, Msg: fmt.Sprintf(format, args...)}
		}
		switch ev.Phase {
		case "X":
			if ev.TS < 0 || ev.Dur < 0 {
				return fail("negative ts/dur")
			}
		case "i":
			if ev.TS < 0 {
				return fail("negative ts")
			}
		case "b", "n", "e":
			if ev.ID == "" {
				return fail("async event without id")
			}
			k := asyncKey{ev.Cat, ev.ID}
			switch ev.Phase {
			case "b":
				open[k] = append(open[k], openSpan{index: i, line: line, offset: off, name: ev.Name, cat: ev.Cat, id: ev.ID})
			case "n":
				if len(open[k]) == 0 {
					return fail("async instant outside open span (%s, %s)", ev.Cat, ev.ID)
				}
			case "e":
				if len(open[k]) == 0 {
					return fail("async end without begin (%s, %s)", ev.Cat, ev.ID)
				}
				open[k] = open[k][:len(open[k])-1]
			}
		case "M":
			// metadata: no timing constraints
			return nil
		default:
			return fail("unknown phase %q", ev.Phase)
		}
		// Negative durations are malformed on every timing phase, not
		// just complete spans (X reports the combined message above).
		if ev.Dur < 0 {
			return fail("negative dur")
		}
		// The exporter emits canonically TS-sorted events, so per-track
		// timestamps never decrease in document order; a decrease means
		// the document was edited or merged out of order.
		if last, seen := lastTS[ev.TID]; seen && ev.TS < last {
			return fail("ts %.3f decreases below %.3f on tid %d", ev.TS, last, ev.TID)
		}
		lastTS[ev.TID] = ev.TS
		return nil
	})
	if err != nil {
		return stats, err
	}
	// Report the earliest still-open begin so the line points at the
	// span that never closed.
	var leaked *openSpan
	for _, spans := range open {
		for i := range spans {
			if leaked == nil || spans[i].index < leaked.index {
				leaked = &spans[i]
			}
		}
	}
	if leaked != nil {
		return stats, &Error{
			Index: leaked.index, Line: leaked.line, Offset: leaked.offset, Name: leaked.name,
			Msg: fmt.Sprintf("async span (%s, %s) never ends", leaked.cat, leaked.id),
		}
	}
	if stats.Events == 0 {
		return stats, &Error{Index: -1, Msg: "no trace events"}
	}
	return stats, nil
}
