// Package traceview is the trace analytics engine: it consumes an
// exported Chrome/Perfetto trace document through the tracecheck
// streaming reader and computes aggregate views the raw event list
// cannot answer directly: a merged span tree / flame view per subsystem
// with total/self time (flame.go), and per-packet critical-path
// analysis over the lifecycle flows (critpath.go).
//
// FromChrome normalizes the document into []Event in a canonical
// order, so the analysis depends only on the exported bytes and a
// same-seed rerun produces byte-identical JSON and SVG documents —
// the same determinism discipline the exporter itself follows.
package traceview

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"ibcbench/internal/tracecheck"
)

// Event is one normalized trace event: resolved track/name strings,
// virtual-time nanoseconds, and the async flow ID in the exporter's
// "0x…" string form (empty for sync phases).
type Event struct {
	TS    time.Duration
	Dur   time.Duration
	Track string
	Name  string
	ID    string
	Phase byte
}

// FromChrome normalizes a stored trace-event document via the
// tracecheck streaming reader. Track names come from the thread_name
// metadata rows (falling back to "track-<tid>" for unnamed threads);
// microsecond float timestamps convert back to nanoseconds exactly
// because the exporter writes fixed three-decimal microseconds.
func FromChrome(data []byte) ([]Event, error) {
	threads := map[int]string{}
	type pending struct {
		ev  Event
		tid int
	}
	var raw []pending
	err := tracecheck.Events(data, func(ev tracecheck.Event, _, _ int, _ int64) error {
		switch ev.Phase {
		case "M":
			if ev.Name == "thread_name" {
				threads[ev.TID] = ev.Args.Name
			}
		case "X", "i", "b", "n", "e":
			raw = append(raw, pending{Event{
				TS:    microsToDur(ev.TS),
				Dur:   microsToDur(ev.Dur),
				Name:  ev.Name,
				ID:    ev.ID,
				Phase: ev.Phase[0],
			}, ev.TID})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]Event, len(raw))
	for i, p := range raw {
		e := p.ev
		if name, ok := threads[p.tid]; ok && name != "" {
			e.Track = name
		} else {
			e.Track = "track-" + strconv.Itoa(p.tid)
		}
		out[i] = e
	}
	sortEvents(out)
	return out, nil
}

// microsToDur converts an exporter microsecond timestamp back to a
// duration. Rounding absorbs float formatting/parsing wobble; the
// exporter's fixed three-decimal rendering makes the round-trip exact.
func microsToDur(us float64) time.Duration {
	return time.Duration(math.Round(us * 1000))
}

// phaseRank mirrors the exporter's stable phase ordering for events
// sharing a timestamp: begins before the activity they bracket, ends
// after.
func phaseRank(p byte) int {
	switch p {
	case 'b':
		return 0
	case 'X':
		return 1
	case 'i':
		return 2
	case 'n':
		return 3
	case 'e':
		return 4
	}
	return 5
}

// sortEvents orders events by a canonical total key — (TS, phase,
// track, name, id, dur) — so analysis output depends only on the
// multiset of events, never on source or recording order. Tracks
// compare by name here, not by the exporter's tid.
func sortEvents(evs []Event) {
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
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
		return a.Dur < b.Dur
	})
}

// subsystemOf reduces a track name to its subsystem prefix ("chain/A"
// → "chain"), the flame tree's first level.
func subsystemOf(track string) string {
	if i := strings.IndexByte(track, '/'); i >= 0 {
		return track[:i]
	}
	return track
}

// fmtShare renders a 0..1 fraction as a fixed-precision percentage.
func fmtShare(f float64) string {
	return fmt.Sprintf("%.1f%%", 100*f)
}
