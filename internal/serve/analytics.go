// Trace analytics views: flame (aggregated span tree) and critical
// path (per-packet step attribution) computed on demand from a run's
// stored Chrome trace via internal/traceview. The JSON endpoints
// return traceview's canonical documents byte-for-byte — the same
// bytes `ibcbench trace -analyze` pins in its determinism test — and
// the HTML pages inline the matching SVG with zero external assets,
// like every other dashboard view.
package serve

import (
	"fmt"
	"html"
	"net/http"
	"net/url"
	"strings"

	"ibcbench/internal/traceview"
)

// traceEvents loads a run's stored trace and parses it into canonical
// traceview events. Missing run/trace → 404; a stored-but-unparseable
// trace (possible: invalid traces are archived for inspection) → 422.
func (s *Server) traceEvents(w http.ResponseWriter, id string) ([]traceview.Event, bool) {
	data, err := s.st.Trace(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return nil, false
	}
	events, err := traceview.FromChrome(data)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, fmt.Errorf("stored trace unreadable: %w", err))
		return nil, false
	}
	return events, true
}

// handleFlameAPI serves GET /api/runs/{id}/flame: the aggregated span
// tree as traceview's canonical JSON document.
func (s *Server) handleFlameAPI(w http.ResponseWriter, r *http.Request) {
	events, ok := s.traceEvents(w, r.PathValue("id"))
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(traceview.FlameJSON(traceview.Flame(events)))
}

// handleCritPathAPI serves GET /api/runs/{id}/critpath: the per-packet
// critical-path analysis as traceview's canonical JSON document.
func (s *Server) handleCritPathAPI(w http.ResponseWriter, r *http.Request) {
	events, ok := s.traceEvents(w, r.PathValue("id"))
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(traceview.CritPathJSON(traceview.CriticalPath(events)))
}

// handleFlamePage renders GET /runs/{id}/flame: the icicle SVG over
// the span-tree table.
func (s *Server) handleFlamePage(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	events, ok := s.traceEvents(w, id)
	if !ok {
		return
	}
	root := traceview.Flame(events)
	var b strings.Builder
	pageHead(&b, "flame "+id)
	analyticsNav(&b, id, "flame")
	fmt.Fprintf(&b, "<h1>flame <code>%s</code></h1>\n", html.EscapeString(id))
	b.WriteString("<p class=muted>Aggregated span tree of the stored trace: width is total virtual time, rows nest callees. Hover a block for count, total, and self time.</p>\n")
	traceview.FlameSVG(&b, root)
	b.WriteString("<h2>Span tree</h2>\n<pre>")
	var tbl strings.Builder
	traceview.WriteFlame(&tbl, root, 60)
	b.WriteString(html.EscapeString(tbl.String()))
	b.WriteString("</pre>\n")
	pageFoot(&b)
	writeHTML(w, b.String())
}

// handleCritPathPage renders GET /runs/{id}/critpath: the per-step
// share bars plus the full latency table.
func (s *Server) handleCritPathPage(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	events, ok := s.traceEvents(w, id)
	if !ok {
		return
	}
	cp := traceview.CriticalPath(events)
	var b strings.Builder
	pageHead(&b, "critical path "+id)
	analyticsNav(&b, id, "critpath")
	fmt.Fprintf(&b, "<h1>critical path <code>%s</code></h1>\n", html.EscapeString(id))
	fmt.Fprintf(&b, "<p class=muted>%d packet flow(s), %d step event(s) — attributed %.1f%% of end-to-end latency (residual %v, worst flow %.1f%%).</p>\n",
		cp.Flows, cp.StepEvents, 100*cp.AttributedShare, cp.Residual, 100*cp.WorstFlowShare)
	if cp.Flows > 0 {
		fmt.Fprintf(&b, "<p>end-to-end latency: n=%d p50=%v p99=%v mean=%v max=%v</p>\n",
			cp.EndToEnd.Count, cp.EndToEnd.P50, cp.EndToEnd.P99, cp.EndToEnd.Mean, cp.EndToEnd.Max)
	}
	traceview.CritPathSVG(&b, cp)
	b.WriteString("<h2>Per-step latency</h2>\n")
	b.WriteString("<table>\n<tr><th>edge</th><th>hop</th><th>step</th><th>count</th><th>p50</th><th>p99</th><th>mean</th><th>max</th><th>share</th><th>dominant</th></tr>\n")
	for _, g := range cp.Groups {
		for _, st := range g.Steps {
			fmt.Fprintf(&b, "<tr><td><code>%s</code></td><td>%d</td><td>%s</td><td>%d</td><td>%v</td><td>%v</td><td>%v</td><td>%v</td><td>%.1f%%</td><td>%d</td></tr>\n",
				html.EscapeString(g.Edge), g.Hop, html.EscapeString(st.Step), st.Count,
				st.P50, st.P99, st.Mean, st.Max, 100*st.Share, st.Dominant)
		}
	}
	b.WriteString("</table>\n")
	pageFoot(&b)
	writeHTML(w, b.String())
}

// analyticsNav is the shared back-link row of both analytics pages.
func analyticsNav(b *strings.Builder, id, active string) {
	link := func(name, suffix string) string {
		if name == active {
			return "<strong>" + name + "</strong>"
		}
		return fmt.Sprintf(`<a href="/runs/%s%s">%s</a>`, url.PathEscape(id), suffix, name)
	}
	fmt.Fprintf(b, "<p><a href=\"/runs/%s\">← run</a> · %s · %s</p>\n",
		url.PathEscape(id), link("flame", "/flame"), link("critpath", "/critpath"))
}
