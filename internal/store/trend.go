// Cross-run trend extraction and the rolling-median regression
// detector: the store's generalization of the CLI's two-file
// `diff -fail-on-change` gate. Where the gate compares one run against
// one committed baseline, the detector compares the latest run against
// the median of the last K *compatible* runs — runs whose config
// headers agree field for field (resultdiff.Compatible), the same
// condition under which the two-file gate stays armed.
package store

import (
	"fmt"
	"sort"

	"encoding/json"
	"math"

	"ibcbench/internal/resultdiff"
)

// TrendPoint is one run's value of a trend metric.
type TrendPoint struct {
	Seq    int64   `json:"seq"`
	ID     string  `json:"id"`
	Commit string  `json:"commit,omitempty"`
	Time   string  `json:"time,omitempty"`
	Value  float64 `json:"value"`
	// Compatible reports whether this run's config header matches the
	// trend's reference config (the latest run carrying the metric).
	// The dashboard annotates incompatible points; the regression
	// window excludes them.
	Compatible bool `json:"compatible"`
}

// Trend collects metric (a flattened dotted path, e.g.
// "topo.Sample.BlocksPerSec" or "bench.BenchmarkNetemSend.ns/op")
// across every archived run of the given kind ("" = all kinds), in
// ingest order. Runs whose payload lacks the metric are skipped; the
// reference config for compatibility annotation is the latest matching
// run's.
func (s *Store) Trend(metric, kind string) ([]TrendPoint, error) {
	if metric == "" {
		return nil, fmt.Errorf("store: trend needs a metric path")
	}
	type cand struct {
		meta  Meta
		value float64
	}
	var cands []cand
	for _, m := range s.Runs() {
		if kind != "" && m.Kind != kind {
			continue
		}
		_, payload, err := s.Get(m.ID)
		if err != nil {
			return nil, err
		}
		var doc any
		if err := json.Unmarshal(payload, &doc); err != nil {
			return nil, fmt.Errorf("store: run %s: %w", m.ID, err)
		}
		v, ok := resultdiff.Flatten("", doc)[metric]
		if !ok {
			continue
		}
		f, ok := v.(float64)
		if !ok {
			return nil, fmt.Errorf("store: run %s: metric %s is %T, not numeric", m.ID, metric, v)
		}
		cands = append(cands, cand{meta: m, value: f})
	}
	if len(cands) == 0 {
		return nil, nil
	}
	ref := cands[len(cands)-1].meta.Config
	points := make([]TrendPoint, 0, len(cands))
	for _, c := range cands {
		points = append(points, TrendPoint{
			Seq: c.meta.Seq, ID: c.meta.ID, Commit: c.meta.Commit, Time: c.meta.Time,
			Value:      c.value,
			Compatible: resultdiff.Compatible(ref, c.meta.Config),
		})
	}
	return points, nil
}

// Regression is the rolling-median detector's verdict on one metric.
type Regression struct {
	Metric string `json:"metric"`
	// Latest is the run under test: the newest one carrying the metric.
	Latest TrendPoint `json:"latest"`
	// Window is how many prior compatible runs fed the median (≤ K).
	Window int `json:"window"`
	// Median is the rolling baseline over that window.
	Median float64 `json:"median"`
	// DeltaPct is the latest value's move against the median in percent.
	// Zero when no percent is defined (zero median) — Flagged still
	// reports the verdict.
	DeltaPct float64 `json:"delta_pct"`
	// Flagged is true when the move exceeds the tolerance — or the
	// median is zero and the latest is not, the no-defined-percent case
	// the two-file gate also trips on.
	Flagged bool `json:"flagged"`
}

// CheckRegression compares the latest run's metric against the median
// of the last k prior compatible runs (config headers identical to the
// latest run's), flagging moves beyond tolPct percent. At least one
// prior compatible run is required; fewer than k just shrinks the
// window. Incompatible runs are skipped, not counted — a config change
// starts a fresh trajectory without tripping the detector.
func (s *Store) CheckRegression(metric, kind string, k int, tolPct float64) (*Regression, error) {
	if k <= 0 {
		k = 5
	}
	if tolPct < 0 {
		return nil, fmt.Errorf("store: regression tolerance must be >= 0 (got %v)", tolPct)
	}
	points, err := s.Trend(metric, kind)
	if err != nil {
		return nil, err
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("store: no runs carry metric %s", metric)
	}
	latest := points[len(points)-1]
	var window []float64
	for i := len(points) - 2; i >= 0 && len(window) < k; i-- {
		if points[i].Compatible {
			window = append(window, points[i].Value)
		}
	}
	reg := &Regression{Metric: metric, Latest: latest, Window: len(window)}
	if len(window) == 0 {
		return reg, nil // first run of this config: nothing to compare against
	}
	sort.Float64s(window)
	mid := len(window) / 2
	if len(window)%2 == 1 {
		reg.Median = window[mid]
	} else {
		reg.Median = (window[mid-1] + window[mid]) / 2
	}
	switch {
	case reg.Median == 0 && latest.Value == 0:
		reg.DeltaPct = 0
	case reg.Median == 0:
		// Moving off a zero median has no defined percent change; trip
		// the detector like the two-file gate does.
		reg.Flagged = true
	default:
		reg.DeltaPct = 100 * (latest.Value - reg.Median) / math.Abs(reg.Median)
		reg.Flagged = math.Abs(reg.DeltaPct) > tolPct
	}
	return reg, nil
}
