// Summary: aggregate complete spans into a per-subsystem total/self
// time table — the `ibcbench trace -summary` view. Self time subtracts
// the duration of nested spans on the same track, so "block" minus its
// nested "exec" shows pure consensus overhead.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// SummaryRow aggregates one span name within one subsystem (the track
// name up to the first '/': "chain", "relayer", ...).
type SummaryRow struct {
	Subsystem string
	Name      string
	Count     int
	Total     time.Duration
	Self      time.Duration
}

// spanRec is one complete span during the self-time sweep.
type spanRec struct {
	start, end time.Duration
	name       NameID
	self       time.Duration
}

// Summary aggregates every complete span, computing self time per track
// via a start-ordered stack sweep, and returns rows sorted by total
// time descending (ties by subsystem then name).
func (t *Tracer) Summary() []SummaryRow {
	if t == nil {
		return nil
	}
	perTrack := make(map[TrackID][]*spanRec)
	t.Events(func(ev Event) {
		if ev.Phase != PhaseComplete {
			return
		}
		perTrack[ev.Track] = append(perTrack[ev.Track],
			&spanRec{start: ev.TS, end: ev.TS + ev.Dur, name: ev.Name})
	})
	agg := make(map[[2]string]*SummaryRow)
	// Track iteration order doesn't matter: aggregation is commutative
	// and the final sort is total.
	for track, spans := range perTrack {
		sort.SliceStable(spans, func(i, j int) bool {
			if spans[i].start != spans[j].start {
				return spans[i].start < spans[j].start
			}
			if spans[i].end != spans[j].end {
				return spans[i].end > spans[j].end // parent before equal-start child
			}
			return spans[i].name < spans[j].name // interleaving-independent tie
		})
		var stack []*spanRec
		for _, sp := range spans {
			sp.self = sp.end - sp.start
			for len(stack) > 0 && stack[len(stack)-1].end <= sp.start {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				stack[len(stack)-1].self -= sp.end - sp.start
			}
			stack = append(stack, sp)
		}
		sub := subsystemOf(t.TrackName(track))
		for _, sp := range spans {
			key := [2]string{sub, t.NameString(sp.name)}
			row, ok := agg[key]
			if !ok {
				row = &SummaryRow{Subsystem: key[0], Name: key[1]}
				agg[key] = row
			}
			row.Count++
			row.Total += sp.end - sp.start
			row.Self += sp.self
		}
	}
	rows := make([]SummaryRow, 0, len(agg))
	for _, row := range agg {
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Total != rows[j].Total {
			return rows[i].Total > rows[j].Total
		}
		if rows[i].Subsystem != rows[j].Subsystem {
			return rows[i].Subsystem < rows[j].Subsystem
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// subsystemOf reduces a track name to its subsystem prefix.
func subsystemOf(track string) string {
	if i := strings.IndexByte(track, '/'); i >= 0 {
		return track[:i]
	}
	return track
}

// WriteSummary renders the top rows as an aligned table.
func WriteSummary(w io.Writer, rows []SummaryRow, top int) {
	if top > 0 && len(rows) > top {
		rows = rows[:top]
	}
	fmt.Fprintf(w, "%-12s %-24s %-8s %-14s %-14s\n", "subsystem", "span", "count", "total", "self")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-24s %-8d %-14v %-14v\n", r.Subsystem, r.Name, r.Count, r.Total, r.Self)
	}
}
