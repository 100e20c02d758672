// Dashboard: the dependency-free HTML views of the experiment service.
// Everything — styles, charts, badges — is rendered inline (no external
// assets, no JavaScript): trend charts are hand-built SVG with native
// <title> hover tooltips, colors are CSS custom properties with a
// selected dark mode, and config-mismatch runs are annotated by marker
// shape (open vs filled) plus text, never color alone.
package serve

import (
	"encoding/json"
	"fmt"
	"html"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strings"

	"ibcbench/internal/resultdiff"
	"ibcbench/internal/store"
)

// pageCSS is the shared stylesheet. Chart marks reference role
// variables so the selected dark values swap in one place.
const pageCSS = `
:root {
  color-scheme: light dark;
  --surface-1: #fcfcfb; --surface-2: #f1f0ee;
  --text-primary: #0b0b0b; --text-secondary: #52514e;
  --grid: #e1e0d9; --series-1: #2a78d6;
  --status-good: #0ca30c; --status-bad: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface-1: #1a1a19; --surface-2: #242423;
    --text-primary: #ffffff; --text-secondary: #c3c2b7;
    --grid: #2c2c2a; --series-1: #3987e5;
  }
}
body { background: var(--surface-1); color: var(--text-primary);
  font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto; max-width: 60rem; padding: 0 1rem; }
h1, h2 { font-weight: 600; } h1 { font-size: 1.3rem; } h2 { font-size: 1.05rem; margin-top: 2rem; }
a { color: var(--series-1); text-decoration: none; } a:hover { text-decoration: underline; }
table { border-collapse: collapse; width: 100%; margin: 0.5rem 0 1rem; }
th, td { text-align: left; padding: 0.25rem 0.75rem 0.25rem 0;
  border-bottom: 1px solid var(--grid); font-variant-numeric: tabular-nums; }
th { color: var(--text-secondary); font-weight: 500; }
code { background: var(--surface-2); padding: 0 0.25rem; border-radius: 3px; }
.muted { color: var(--text-secondary); }
.badge { border-radius: 3px; padding: 0 0.4rem; font-size: 0.85em; }
.badge.good { color: var(--status-good); border: 1px solid var(--status-good); }
.badge.bad { color: var(--status-bad); border: 1px solid var(--status-bad); }
form.metric input[type=text] { background: var(--surface-2); color: var(--text-primary);
  border: 1px solid var(--grid); border-radius: 3px; padding: 0.2rem 0.4rem; width: 24rem; }
svg.trend { display: block; margin: 0.25rem 0 0.5rem; }
svg.trend .grid { stroke: var(--grid); stroke-width: 1; }
svg.trend .axis { fill: var(--text-secondary); font-size: 11px; }
svg.trend .line { stroke: var(--series-1); stroke-width: 2; fill: none;
  stroke-linejoin: round; stroke-linecap: round; }
svg.trend .pt { fill: var(--series-1); }
svg.trend .pt-mismatch { fill: var(--surface-1); stroke: var(--series-1); stroke-width: 2; }
svg.trend .label { fill: var(--text-primary); font-size: 11px; }
`

// defaultMetricCandidates are charted when the dashboard is opened
// without ?metric= — each is kept only if at least one archived run
// carries it.
var defaultMetricCandidates = []string{
	"topo.Sample.BlocksPerSec",
	"topo.Throughput.Mean",
	"topo.Sample.Throughput",
	"result.BlocksPerSec",
	"result.Throughput",
	"metrics.wall_s.value",
}

func (s *Server) handleDashboard(w http.ResponseWriter, r *http.Request) {
	metrics := r.URL.Query()["metric"]
	explicit := len(metrics) > 0
	if !explicit {
		metrics = defaultMetricCandidates
	}
	var b strings.Builder
	pageHead(&b, "ibcbench experiment service")
	runs := s.st.Runs()
	fmt.Fprintf(&b, "<h1>ibcbench experiment service</h1>\n<p class=muted>%d archived run(s) in <code>%s</code></p>\n",
		len(runs), html.EscapeString(s.st.Dir()))
	b.WriteString(`<form class=metric method=get action=/>` +
		`<input type=text name=metric placeholder="chart a metric path, e.g. topo.Sample.BlocksPerSec">` +
		` <input type=submit value=Chart></form>` + "\n")
	charted := 0
	for _, metric := range metrics {
		points, err := s.st.Trend(metric, "")
		if err != nil && explicit {
			fmt.Fprintf(&b, "<h2>%s</h2>\n<p class=\"badge bad\">%s</p>\n",
				html.EscapeString(metric), html.EscapeString(err.Error()))
			continue
		}
		if len(points) == 0 {
			if explicit {
				fmt.Fprintf(&b, "<h2>%s</h2>\n<p class=muted>no archived run carries this metric</p>\n",
					html.EscapeString(metric))
			}
			continue
		}
		charted++
		fmt.Fprintf(&b, "<h2>%s</h2>\n", html.EscapeString(metric))
		trendSVG(&b, points)
		mismatches := 0
		for _, p := range points {
			if !p.Compatible {
				mismatches++
			}
		}
		if mismatches > 0 {
			fmt.Fprintf(&b, "<p class=muted>○ %d run(s) with a config header differing from the latest — their deltas measure the config change, not a regression.</p>\n", mismatches)
		}
	}
	if charted == 0 {
		b.WriteString("<p class=muted>No trend charts yet — archive runs with <code>ibcbench sweep -experiment ... -store DIR</code> or POST result documents to <code>/api/ingest</code>.</p>\n")
	}
	b.WriteString("<h2>Runs</h2>\n")
	runsTable(&b, runs)
	pageFoot(&b)
	writeHTML(w, b.String())
}

// handleRunPage is the per-run drill-down: provenance, the config
// header, the obs metrics-registry snapshot tables, and the stored
// trace (badged by its ingest-time validation).
func (s *Server) handleRunPage(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	meta, payload, err := s.st.Get(id)
	if err != nil {
		http.NotFound(w, r)
		return
	}
	var doc any
	json.Unmarshal(payload, &doc)
	var b strings.Builder
	pageHead(&b, "run "+id)
	fmt.Fprintf(&b, "<p><a href=/>← all runs</a></p>\n<h1>run <code>%s</code></h1>\n", html.EscapeString(id))
	b.WriteString("<table>\n")
	row := func(k, v string) {
		fmt.Fprintf(&b, "<tr><th>%s</th><td>%s</td></tr>\n", html.EscapeString(k), v)
	}
	row("seq", fmt.Sprintf("%d", meta.Seq))
	row("kind", html.EscapeString(meta.Kind))
	row("commit", "<code>"+html.EscapeString(meta.Commit)+"</code>")
	row("seed", fmt.Sprintf("%d", meta.Seed))
	row("time", html.EscapeString(meta.Time))
	row("payload", fmt.Sprintf(`<a href="/api/runs/%s/payload">payload.json</a> (%d bytes)`, url.PathEscape(id), len(payload)))
	row("trace", traceCell(meta))
	if meta.HasTrace() {
		row("analytics", fmt.Sprintf(`<a href="/runs/%s/flame">flame</a> · <a href="/runs/%s/critpath">critical path</a>`,
			url.PathEscape(id), url.PathEscape(id)))
	}
	b.WriteString("</table>\n")

	if len(meta.Config) > 0 {
		b.WriteString("<h2>Config header</h2>\n<table>\n<tr><th>field</th><th>value</th></tr>\n")
		flat := resultdiff.Flatten("", map[string]any(meta.Config))
		paths := make([]string, 0, len(flat))
		for p := range flat {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		for _, p := range paths {
			fmt.Fprintf(&b, "<tr><td>%s</td><td>%v</td></tr>\n", html.EscapeString(p), html.EscapeString(fmt.Sprint(flat[p])))
		}
		b.WriteString("</table>\n")
	}
	for _, snap := range findSnapshots("", doc) {
		fmt.Fprintf(&b, "<h2>Metrics registry <span class=muted>(%s)</span></h2>\n", html.EscapeString(snap.path))
		snapshotTables(&b, snap.obj)
	}
	pageFoot(&b)
	writeHTML(w, b.String())
}

func traceCell(m store.Meta) string {
	if !m.HasTrace() {
		return `<span class=muted>none</span>`
	}
	link := fmt.Sprintf(`<a href="/api/runs/%s/trace">trace.json</a> <span class=muted>(load at ui.perfetto.dev)</span>`, url.PathEscape(m.ID))
	if *m.TraceValid {
		return link + ` <span class="badge good">valid</span>`
	}
	return link + ` <span class="badge bad">invalid</span>`
}

func runsTable(b *strings.Builder, runs []store.Meta) {
	b.WriteString("<table>\n<tr><th>seq</th><th>run</th><th>kind</th><th>commit</th><th>seed</th><th>time</th><th>trace</th></tr>\n")
	// Latest first: the dashboard is about where the trajectory is now.
	for i := len(runs) - 1; i >= 0; i-- {
		m := runs[i]
		trace := `<span class=muted>–</span>`
		if m.HasTrace() {
			if *m.TraceValid {
				trace = `<span class="badge good">valid</span>`
			} else {
				trace = `<span class="badge bad">invalid</span>`
			}
		}
		fmt.Fprintf(b, `<tr><td>%d</td><td><a href="/runs/%s"><code>%s</code></a></td><td>%s</td><td><code>%s</code></td><td>%d</td><td>%s</td><td>%s</td></tr>`+"\n",
			m.Seq, url.PathEscape(m.ID), html.EscapeString(m.ID), html.EscapeString(m.Kind),
			html.EscapeString(m.Commit), m.Seed, html.EscapeString(m.Time), trace)
	}
	b.WriteString("</table>\n")
}

// trendSVG renders one metric's run sequence as an inline SVG line
// chart: recessive grid, 2px series line, ≥8px markers with native
// <title> tooltips, the latest value direct-labeled, and
// config-mismatch runs drawn as open (hollow) markers.
func trendSVG(b *strings.Builder, points []store.TrendPoint) {
	const (
		width, height = 720, 200
		ml, mr        = 64, 16
		mt, mb        = 12, 28
	)
	plotW, plotH := float64(width-ml-mr), float64(height-mt-mb)
	lo, hi := points[0].Value, points[0].Value
	for _, p := range points {
		lo, hi = math.Min(lo, p.Value), math.Max(hi, p.Value)
	}
	if lo == hi { // flat series: pad so the line sits mid-plot
		pad := math.Abs(lo) * 0.1
		if pad == 0 {
			pad = 1
		}
		lo, hi = lo-pad, hi+pad
	} else {
		pad := (hi - lo) * 0.08
		lo, hi = lo-pad, hi+pad
	}
	x := func(i int) float64 {
		if len(points) == 1 {
			return float64(ml) + plotW/2
		}
		return float64(ml) + plotW*float64(i)/float64(len(points)-1)
	}
	y := func(v float64) float64 { return float64(mt) + plotH*(1-(v-lo)/(hi-lo)) }

	fmt.Fprintf(b, `<svg class=trend viewBox="0 0 %d %d" width="%d" height="%d" role=img>`+"\n", width, height, width, height)
	// Recessive grid + y-axis tick labels at 3 levels.
	for i := 0; i <= 2; i++ {
		v := lo + (hi-lo)*float64(i)/2
		gy := y(v)
		fmt.Fprintf(b, `<line class=grid x1="%d" y1="%.1f" x2="%d" y2="%.1f"/>`+"\n", ml, gy, width-mr, gy)
		fmt.Fprintf(b, `<text class=axis x="%d" y="%.1f" text-anchor=end>%s</text>`+"\n", ml-8, gy+4, fmtVal(v))
	}
	// X tick labels: run sequence numbers, thinned to ~8.
	step := (len(points) + 7) / 8
	for i := 0; i < len(points); i += step {
		fmt.Fprintf(b, `<text class=axis x="%.1f" y="%d" text-anchor=middle>#%d</text>`+"\n",
			x(i), height-8, points[i].Seq)
	}
	var path strings.Builder
	for i, p := range points {
		cmd := "L"
		if i == 0 {
			cmd = "M"
		}
		fmt.Fprintf(&path, "%s%.1f %.1f ", cmd, x(i), y(p.Value))
	}
	fmt.Fprintf(b, `<path class=line d="%s"/>`+"\n", strings.TrimSpace(path.String()))
	for i, p := range points {
		class, note := "pt", ""
		if !p.Compatible {
			class, note = "pt-mismatch", " — config differs from latest"
		}
		fmt.Fprintf(b, `<circle class=%s cx="%.1f" cy="%.1f" r="4"><title>run #%d %s%s
commit %s  value %s%s</title></circle>`+"\n",
			class, x(i), y(p.Value), p.Seq, html.EscapeString(p.ID), html.EscapeString(p.Time),
			html.EscapeString(p.Commit), fmtVal(p.Value), note)
	}
	// Direct-label the latest point only.
	last := points[len(points)-1]
	anchor, lx := "end", x(len(points)-1)-8
	if len(points) == 1 {
		anchor, lx = "middle", x(0)
	}
	fmt.Fprintf(b, `<text class=label x="%.1f" y="%.1f" text-anchor=%s>%s</text>`+"\n",
		lx, y(last.Value)-8, anchor, fmtVal(last.Value))
	b.WriteString("</svg>\n")
}

// fmtVal renders an axis/label value compactly.
func fmtVal(v float64) string {
	switch {
	case v != 0 && (math.Abs(v) >= 1e6 || math.Abs(v) < 1e-3):
		return fmt.Sprintf("%.2e", v)
	case v == math.Trunc(v):
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// snapshot is one metrics-registry snapshot found inside a payload.
type snapshot struct {
	path string
	obj  map[string]any
}

// findSnapshots walks the payload for obs registry snapshots — objects
// carrying Counters/Gauges/Histograms sections — wherever the document
// nests them (topo.Sample.Metrics, result.Metrics, ...).
func findSnapshots(prefix string, v any) []snapshot {
	m, ok := v.(map[string]any)
	if !ok {
		return nil
	}
	_, c := m["Counters"].([]any)
	_, g := m["Gauges"].([]any)
	_, h := m["Histograms"].([]any)
	if c || g || h {
		return []snapshot{{path: prefix, obj: m}}
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []snapshot
	for _, k := range keys {
		p := k
		if prefix != "" {
			p = prefix + "." + k
		}
		out = append(out, findSnapshots(p, m[k])...)
	}
	return out
}

// snapshotTables renders one registry snapshot as the obs summary-style
// aligned tables.
func snapshotTables(b *strings.Builder, snap map[string]any) {
	section := func(title string, cols []string, rows []any, cells func(map[string]any) []string) {
		if len(rows) == 0 {
			return
		}
		fmt.Fprintf(b, "<h3 class=muted>%s</h3>\n<table>\n<tr>", title)
		for _, c := range cols {
			fmt.Fprintf(b, "<th>%s</th>", c)
		}
		b.WriteString("</tr>\n")
		for _, r := range rows {
			m, ok := r.(map[string]any)
			if !ok {
				continue
			}
			b.WriteString("<tr>")
			for _, cell := range cells(m) {
				fmt.Fprintf(b, "<td>%s</td>", html.EscapeString(cell))
			}
			b.WriteString("</tr>\n")
		}
		b.WriteString("</table>\n")
	}
	num := func(v any) string {
		f, ok := v.(float64)
		if !ok {
			return fmt.Sprint(v)
		}
		return fmtVal(f)
	}
	counters, _ := snap["Counters"].([]any)
	section("counters", []string{"name", "value"}, counters, func(m map[string]any) []string {
		return []string{fmt.Sprint(m["Name"]), num(m["Value"])}
	})
	gauges, _ := snap["Gauges"].([]any)
	section("gauges", []string{"name", "last", "max", "samples"}, gauges, func(m map[string]any) []string {
		return []string{fmt.Sprint(m["Name"]), num(m["Last"]), num(m["Max"]), num(m["Samples"])}
	})
	hists, _ := snap["Histograms"].([]any)
	section("histograms", []string{"name", "count", "sum", "min", "max"}, hists, func(m map[string]any) []string {
		return []string{fmt.Sprint(m["Name"]), num(m["Count"]), num(m["Sum"]), num(m["Min"]), num(m["Max"])}
	})
}

func pageHead(b *strings.Builder, title string) {
	fmt.Fprintf(b, `<!doctype html>
<html lang=en>
<meta charset=utf-8>
<meta name=viewport content="width=device-width, initial-scale=1">
<title>%s</title>
<style>%s</style>
<body>
`, html.EscapeString(title), pageCSS)
}

func pageFoot(b *strings.Builder) {
	b.WriteString(`<p class=muted>API: <code>/api/runs</code> · <code>/api/runs/{id}</code> · <code>/api/trend?metric=</code> · <code>/api/diff?a=&amp;b=</code> · <code>/api/regression?metric=</code> · <code>POST /api/ingest</code></p>
</body>
</html>
`)
}

func writeHTML(w http.ResponseWriter, page string) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write([]byte(page))
}
