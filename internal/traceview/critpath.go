// Critical-path analysis: walk every packet-lifecycle flow (the async
// "pkt" events sharing one trace ID — forwarded hops share the origin
// ID) in virtual-time order and attribute each inter-event gap to the
// lifecycle step that closed it, grouped by edge (the track the step
// landed on) and route hop (the ordinal of that track's first
// appearance within the flow). The result answers the paper's core
// question — which step dominates end-to-end latency, on which edge —
// with p50/p99 per step via metrics.Quantile, each step's share of
// total end-to-end time, and the count of packets for which that step
// was the single largest contributor ("dominant").
//
// Attribution is exhaustive by construction: a flow's first and last
// events bound its end-to-end window and every step instant closes the
// gap back to the previous event, so residual unattributed time is
// only the tail between the last step and the flow's end. It is still
// computed and reported explicitly rather than assumed zero.
package traceview

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"ibcbench/internal/metrics"
)

// StepStat is the latency distribution of one lifecycle step within
// one (edge, hop) group.
type StepStat struct {
	Step     string        `json:"step"`
	Count    int           `json:"count"`
	P50      time.Duration `json:"p50"`
	P99      time.Duration `json:"p99"`
	Mean     time.Duration `json:"mean"`
	Max      time.Duration `json:"max"`
	Total    time.Duration `json:"total"`
	Share    float64       `json:"share"`
	Dominant int           `json:"dominant,omitempty"`
}

// CritGroup aggregates the steps observed on one edge at one route
// hop. Hop 0 is the flow's origin track; a forwarded route's second
// leg appears as hop 1 on the intermediate chain's track.
type CritGroup struct {
	Edge  string        `json:"edge"`
	Hop   int           `json:"hop"`
	Flows int           `json:"flows"`
	Total time.Duration `json:"total"`
	Steps []StepStat    `json:"steps"`
}

// LatencyDist summarizes the end-to-end latency across flows.
type LatencyDist struct {
	Count int           `json:"count"`
	P50   time.Duration `json:"p50"`
	P99   time.Duration `json:"p99"`
	Mean  time.Duration `json:"mean"`
	Max   time.Duration `json:"max"`
}

// CritPath is the full critical-path analysis of one trace.
type CritPath struct {
	Flows           int           `json:"flows"`
	StepEvents      int           `json:"step_events"`
	EndToEnd        LatencyDist   `json:"end_to_end"`
	TotalEndToEnd   time.Duration `json:"total_end_to_end"`
	Attributed      time.Duration `json:"attributed"`
	Residual        time.Duration `json:"residual"`
	AttributedShare float64       `json:"attributed_share"`
	WorstFlowShare  float64       `json:"worst_flow_share"`
	Groups          []CritGroup   `json:"groups"`
}

// stepOrder maps lifecycle step names to their paper ordinal so tables
// read in transfer order rather than alphabetically; unknown names
// sort after, alphabetically.
var stepOrder = func() map[string]int {
	m := make(map[string]int, metrics.NumSteps)
	for i := 1; i <= metrics.NumSteps; i++ {
		m[metrics.Step(i).String()] = i
	}
	return m
}()

func stepRank(name string) int {
	if r, ok := stepOrder[name]; ok {
		return r
	}
	return metrics.NumSteps + 1
}

// CriticalPath analyzes every async flow in events. Events must be in
// canonical order (FromChrome guarantees it); flows are
// processed in first-appearance order and aggregation is commutative,
// so the result depends only on the event multiset.
func CriticalPath(events []Event) *CritPath {
	flows := map[string][]Event{}
	var order []string
	for _, ev := range events {
		switch ev.Phase {
		case 'b', 'n', 'e':
			if ev.ID == "" {
				continue
			}
			if _, ok := flows[ev.ID]; !ok {
				order = append(order, ev.ID)
			}
			flows[ev.ID] = append(flows[ev.ID], ev)
		}
	}

	type groupKey struct {
		edge string
		hop  int
	}
	type stepKey struct {
		g    groupKey
		step string
	}
	type stepAgg struct {
		samples  []float64 // nanoseconds
		total    time.Duration
		dominant int
	}
	stepAggs := map[stepKey]*stepAgg{}
	groupFlows := map[groupKey]map[string]bool{}

	cp := &CritPath{Flows: len(flows)}
	var e2eSamples []float64
	for _, id := range order {
		evs := flows[id]
		first, last := evs[0].TS, evs[len(evs)-1].TS
		e2e := last - first
		cp.TotalEndToEnd += e2e
		e2eSamples = append(e2eSamples, float64(e2e))

		hops := map[string]int{}
		prev := first
		var attributed time.Duration
		var domKey stepKey
		var domDelta time.Duration
		domSet := false
		for _, ev := range evs {
			if _, ok := hops[ev.Track]; !ok {
				hops[ev.Track] = len(hops)
			}
			if ev.Phase != 'n' {
				continue
			}
			delta := ev.TS - prev
			prev = ev.TS
			cp.StepEvents++
			g := groupKey{edge: ev.Track, hop: hops[ev.Track]}
			k := stepKey{g: g, step: ev.Name}
			agg := stepAggs[k]
			if agg == nil {
				agg = &stepAgg{}
				stepAggs[k] = agg
			}
			agg.samples = append(agg.samples, float64(delta))
			agg.total += delta
			attributed += delta
			if gf := groupFlows[g]; gf == nil {
				groupFlows[g] = map[string]bool{id: true}
			} else {
				gf[id] = true
			}
			if !domSet || delta > domDelta {
				domKey, domDelta, domSet = k, delta, true
			}
		}
		cp.Attributed += attributed
		if domSet {
			stepAggs[domKey].dominant++
		}
		flowShare := 1.0
		if e2e > 0 {
			flowShare = float64(attributed) / float64(e2e)
		}
		if len(e2eSamples) == 1 || flowShare < cp.WorstFlowShare {
			cp.WorstFlowShare = flowShare
		}
	}
	cp.Residual = cp.TotalEndToEnd - cp.Attributed
	cp.AttributedShare = 1.0
	if cp.TotalEndToEnd > 0 {
		cp.AttributedShare = float64(cp.Attributed) / float64(cp.TotalEndToEnd)
	}
	if cp.Flows == 0 {
		cp.WorstFlowShare = 1.0
	}
	cp.EndToEnd = summarizeDist(e2eSamples)

	groups := map[groupKey]*CritGroup{}
	var keys []groupKey
	for k, agg := range stepAggs {
		g := groups[k.g]
		if g == nil {
			g = &CritGroup{Edge: k.g.edge, Hop: k.g.hop, Flows: len(groupFlows[k.g])}
			groups[k.g] = g
			keys = append(keys, k.g)
		}
		sort.Float64s(agg.samples)
		share := 0.0
		if cp.TotalEndToEnd > 0 {
			share = float64(agg.total) / float64(cp.TotalEndToEnd)
		}
		g.Total += agg.total
		g.Steps = append(g.Steps, StepStat{
			Step:     k.step,
			Count:    len(agg.samples),
			P50:      durQuantile(agg.samples, 0.50),
			P99:      durQuantile(agg.samples, 0.99),
			Mean:     time.Duration(math.Round(mean(agg.samples))),
			Max:      time.Duration(agg.samples[len(agg.samples)-1]),
			Total:    agg.total,
			Share:    share,
			Dominant: agg.dominant,
		})
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].hop != keys[j].hop {
			return keys[i].hop < keys[j].hop
		}
		return keys[i].edge < keys[j].edge
	})
	for _, k := range keys {
		g := groups[k]
		sort.Slice(g.Steps, func(i, j int) bool {
			if ri, rj := stepRank(g.Steps[i].Step), stepRank(g.Steps[j].Step); ri != rj {
				return ri < rj
			}
			return g.Steps[i].Step < g.Steps[j].Step
		})
		cp.Groups = append(cp.Groups, *g)
	}
	return cp
}

func durQuantile(sorted []float64, q float64) time.Duration {
	return time.Duration(math.Round(metrics.Quantile(sorted, q)))
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

func summarizeDist(samples []float64) LatencyDist {
	d := LatencyDist{Count: len(samples)}
	if len(samples) == 0 {
		return d
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	d.P50 = durQuantile(s, 0.50)
	d.P99 = durQuantile(s, 0.99)
	d.Mean = time.Duration(math.Round(mean(s)))
	d.Max = time.Duration(s[len(s)-1])
	return d
}

// CritPathJSON renders the analysis as the canonical indented JSON
// document (durations as integer nanoseconds — exactly reproducible).
func CritPathJSON(cp *CritPath) []byte {
	data, err := json.MarshalIndent(cp, "", "  ")
	if err != nil { // plain values cannot fail to marshal
		panic(err)
	}
	return append(data, '\n')
}

// WriteCritPath renders the analysis as aligned tables: a header with
// the attribution accounting, the end-to-end distribution, and one row
// per (edge, hop, step).
func WriteCritPath(w io.Writer, cp *CritPath) {
	fmt.Fprintf(w, "# critical path: %d flow(s), %d step event(s), attributed %s of end-to-end (residual %v, worst flow %s)\n",
		cp.Flows, cp.StepEvents, fmtShare(cp.AttributedShare), cp.Residual, fmtShare(cp.WorstFlowShare))
	fmt.Fprintf(w, "end-to-end: n=%d p50=%v p99=%v mean=%v max=%v\n",
		cp.EndToEnd.Count, cp.EndToEnd.P50, cp.EndToEnd.P99, cp.EndToEnd.Mean, cp.EndToEnd.Max)
	fmt.Fprintf(w, "%-16s %-4s %-24s %-7s %-14s %-14s %-8s %s\n",
		"edge", "hop", "step", "count", "p50", "p99", "share", "dominant")
	for _, g := range cp.Groups {
		for _, st := range g.Steps {
			fmt.Fprintf(w, "%-16s %-4d %-24s %-7d %-14v %-14v %-8s %d\n",
				g.Edge, g.Hop, st.Step, st.Count, st.P50, st.P99, fmtShare(st.Share), st.Dominant)
		}
	}
}

// Critical-path SVG geometry.
const (
	critWidth  = 720.0
	critRowH   = 16.0
	critLabelW = 300.0
	critPad    = 2.0
)

// CritPathSVG renders the per-step share of end-to-end latency as a
// horizontal bar chart, one row per (edge, hop, step), bars scaled to
// the largest share. Deterministic like FlameSVG: fixed geometry,
// fixed two-decimal coordinates, name-hashed step colors.
func CritPathSVG(w io.Writer, cp *CritPath) error {
	rows := 0
	maxShare := 0.0
	for _, g := range cp.Groups {
		rows += len(g.Steps)
		for _, st := range g.Steps {
			if st.Share > maxShare {
				maxShare = st.Share
			}
		}
	}
	height := float64(rows)*critRowH + 2*critPad
	if rows == 0 {
		height = critRowH + 2*critPad
	}
	if _, err := fmt.Fprintf(w,
		"<svg class=\"critpath\" viewBox=\"0 0 %.0f %.0f\" width=\"%.0f\" height=\"%.0f\" xmlns=\"http://www.w3.org/2000/svg\" role=\"img\" aria-label=\"critical path step shares\">\n",
		critWidth, height, critWidth, height); err != nil {
		return err
	}
	if rows == 0 {
		if _, err := fmt.Fprintf(w,
			"<text x=\"%.0f\" y=\"%.0f\" font-size=\"11\" fill=\"#888888\">no lifecycle flows in trace</text>\n",
			critPad+2, critRowH-4); err != nil {
			return err
		}
	}
	barSpan := critWidth - critLabelW - 3*critPad
	y := critPad
	for _, g := range cp.Groups {
		for _, st := range g.Steps {
			label := fmt.Sprintf("%s h%d %s", g.Edge, g.Hop, st.Step)
			title := fmt.Sprintf("%s hop %d — %s: count %d, p50 %v, p99 %v, total %v (%s of end-to-end), dominant for %d flow(s)",
				g.Edge, g.Hop, st.Step, st.Count, st.P50, st.P99, st.Total, fmtShare(st.Share), st.Dominant)
			width := 0.0
			if maxShare > 0 {
				width = st.Share / maxShare * barSpan
			}
			if _, err := fmt.Fprintf(w,
				"<g><title>%s</title><text x=\"%.2f\" y=\"%.2f\" font-size=\"10\" fill=\"#555555\">%s</text><rect x=\"%.2f\" y=\"%.2f\" width=\"%.2f\" height=\"%.0f\" rx=\"1\" fill=\"%s\"/><text x=\"%.2f\" y=\"%.2f\" font-size=\"10\" fill=\"#333333\">%s</text></g>\n",
				svgEscape(title),
				critPad+2, y+critRowH-5, svgEscape(flameLabel(label, critLabelW)),
				critLabelW+critPad, y+2, width, critRowH-4, flameColor(st.Step),
				critLabelW+critPad+width+4, y+critRowH-5, fmtShare(st.Share)); err != nil {
				return err
			}
			y += critRowH
		}
	}
	_, err := fmt.Fprintf(w, "</svg>\n")
	return err
}
