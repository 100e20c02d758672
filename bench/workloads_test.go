package main

import (
	"bytes"
	"reflect"
	"testing"

	"ibcbench/internal/scenario"
)

func parseSpec(t *testing.T, name string) scenario.Spec {
	t.Helper()
	data, err := specBytes(name)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.Parse(data)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return spec
}

// The spec files are committed in canonical form, so a diff of one is a
// diff of the run it describes.
func TestSpecsAreCanonicalAndCompile(t *testing.T) {
	for _, w := range workloads {
		data, err := specBytes(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		spec := parseSpec(t, w.Name)
		enc, err := scenario.Encode(spec)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !bytes.Equal(enc, data) {
			t.Errorf("%s.json is not in canonical scenario.Encode form; want:\n%s", w.Name, enc)
		}
		if spec.Seed != 0 {
			t.Errorf("%s carries seed %d; the seed is the benchmark's argument", w.Name, spec.Seed)
		}
		if _, err := scenario.Compile(spec); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}

// A twin is its serial workload plus parallelWorkers, nothing else, so
// equal fingerprints compare the two schedulers and not two specs.
func TestTwinDiffersOnlyInParallelWorkers(t *testing.T) {
	for _, w := range workloads {
		if w.Twin == "" {
			continue
		}
		serial, twin := parseSpec(t, w.Twin), parseSpec(t, w.Name)
		if twin.Deploy.ParallelWorkers != 2 || serial.Deploy.ParallelWorkers != 0 {
			t.Errorf("parallelWorkers: %s has %d, %s has %d; want 2 and 0",
				w.Name, twin.Deploy.ParallelWorkers, w.Twin, serial.Deploy.ParallelWorkers)
		}
		twin.Deploy.ParallelWorkers = 0
		if !reflect.DeepEqual(serial, twin) {
			t.Errorf("%s differs from %s in more than deploy.parallelWorkers", w.Name, w.Twin)
		}
		if sw, _ := findWorkload(w.Twin); sw.SeedOffset != w.SeedOffset {
			t.Errorf("%s runs at seed offset %d, its twin %s at %d", w.Name, w.SeedOffset, w.Twin, sw.SeedOffset)
		}
	}
}

// Every workload, scaled down to 2 windows and 20 transfers a route,
// through the same child code path as a measured rep, in each mode.
func TestScaledWorkloadsRunGreen(t *testing.T) {
	modes := []string{modePlain, modeProfile, modeObs}
	for i, w := range workloads {
		spec := parseSpec(t, w.Name)
		spec.Workload.Windows = 2
		for j := range spec.Workload.Routes {
			spec.Workload.Routes[j].Transfers = 20
		}
		data, err := scenario.Encode(spec)
		if err != nil {
			t.Fatal(err)
		}
		mode := modes[i%len(modes)]
		rep, err := runRep(w.Name, data, 11+w.SeedOffset, mode)
		if err != nil {
			t.Fatalf("%s (%s): %v", w.Name, mode, err)
		}
		if rep.Violations != 0 || rep.Completed == 0 || rep.Completed < rep.Requested {
			t.Errorf("%s: %d violations, %d of %d completed", w.Name, rep.Violations, rep.Completed, rep.Requested)
		}
		// Hops the forward middleware emits have no broadcast step, so the
		// latency pool can be smaller than the completed count.
		if rep.LatN == 0 || rep.LatN > rep.Completed || rep.LatP50 <= 0 || rep.LatP99 < rep.LatP50 {
			t.Errorf("%s: latency pool n=%d p50=%v p99=%v over %d completed", w.Name, rep.LatN, rep.LatP50, rep.LatP99, rep.Completed)
		}
		if rep.WallS <= 0 || rep.SetupS <= 0 || rep.Mallocs == 0 || len(rep.Fingerprint) != 64 {
			t.Errorf("%s: incomplete result %+v", w.Name, rep)
		}
		for _, name := range countNames {
			if _, ok := rep.Counts[name]; !ok {
				t.Errorf("%s: count %s missing", w.Name, name)
			}
		}
		if len(rep.Counts) != len(countNames) {
			t.Errorf("%s: %d counts reported, %d declared", w.Name, len(rep.Counts), len(countNames))
		}
		checkSpans(t, w.Name, mode, rep)
		switch mode {
		case modeProfile:
			sum := 0.0
			for _, s := range rep.CPU {
				sum += s
			}
			if rep.CPUTotalS <= 0 || sum < rep.CPUTotalS*0.999999 || sum > rep.CPUTotalS*1.000001 {
				t.Errorf("%s: layers sum to %v s of %v s sampled", w.Name, sum, rep.CPUTotalS)
			}
		case modeObs:
			if rep.TraceEvents == 0 {
				t.Errorf("%s: obs-on rep recorded no trace events", w.Name)
			}
		}
	}
}

// checkSpans wants one root span and each phase exactly once beneath it,
// inside its interval; topo.deploy only in traced modes.
func checkSpans(t *testing.T, name, mode string, rep *repResult) {
	t.Helper()
	if len(rep.Spans) == 0 || rep.Spans[0].Name != "rep" || rep.Spans[0].Parent != -1 {
		t.Fatalf("%s: first span is not the root: %+v", name, rep.Spans)
	}
	root := rep.Spans[0]
	seen := map[string]int{}
	for _, sp := range rep.Spans[1:] {
		seen[sp.Name]++
		if sp.Parent != root.ID || sp.Rep != root.Rep || sp.StartS < root.StartS || sp.EndS > root.EndS || sp.EndS < sp.StartS {
			t.Errorf("%s: span %+v does not nest in root %+v", name, sp, root)
		}
	}
	for _, p := range phaseNames {
		want := 1
		if p == "topo.deploy" && mode == modePlain {
			want = 0
		}
		if seen[p] != want {
			t.Errorf("%s (%s): %d %s spans, want %d", name, mode, seen[p], p, want)
		}
	}
}
