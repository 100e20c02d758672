package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors ../BENCHMARK.json, the declaration the driver
// reads. Decoding is strict: a key the contract does not know is an error.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The names the harness can emit and the names BENCHMARK.json declares
// are one set, in one order, with the same units, directions and bounds.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var bm benchmarkJSON
	if err := dec.Decode(&bm); err != nil {
		t.Fatal(err)
	}

	used := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if used[name] {
			t.Errorf("name %q is used twice", name)
		}
		used[name] = true
	}
	checkMetric := func(name, unit, better string) {
		checkName("metric", name)
		if !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q does not match %v", name, unit, unitRE)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better = %q", name, better)
		}
	}

	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness runs %d", len(bm.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName("workload", w.Name)
		if got := bm.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the harness %q: %q", i, got, w.Name, w.Why)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
		if _, err := specBytes(w.Name); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}

	if len(bm.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the harness emits %d", len(bm.EndToEnd), len(e2eMetrics))
	}
	largest := 0.0
	for i, m := range e2eMetrics {
		checkMetric(m.Name, m.Unit, m.Better)
		got := bm.EndToEnd[i]
		if got.Bound == nil || got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || *got.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the harness %+v", i, got, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		largest = max(largest, m.Bound)
	}
	for _, m := range e2eMetrics {
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower" || m.Bound != largest) {
			t.Errorf("setup_s must be in s, lower-is-better, with the largest bound (%v): %+v", largest, m)
		}
	}
	if !used["setup_s"] {
		t.Error("no setup_s metric")
	}

	layers := layerMetrics()
	if len(bm.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the harness emits %d", len(bm.PerLayer), len(layers))
	}
	if len(layers) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(layers))
	}
	for i, m := range layers {
		checkMetric(m.Name, m.Unit, m.Better)
		if got := bm.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the harness %+v", i, got, m)
		}
	}

	if len(bm.Paths) != 1 || bm.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bm.Paths)
	}
	if len(bm.Command) < 2 || bm.Command[0] != "bash" || bm.Command[1] != "bench/run.sh" {
		t.Errorf("command = %v, want bash bench/run.sh", bm.Command)
	}
	if bm.RunSeconds < 1 || bm.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bm.RunSeconds)
	}
}
