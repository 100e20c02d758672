package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"ibcbench/internal/store"
)

// TestStoreFlagArchivesRuns drives the CLI auto-archival path end to
// end: two topo sweeps and one traced scenario run land in the same
// store, the traced run is an ordinary scenario report carrying a
// validated trace, and the trend across the archived documents is
// readable.
func TestStoreFlagArchivesRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full CLI runs")
	}
	dir := filepath.Join(t.TempDir(), "runs")
	base := []string{"sweep", "-experiment", "topo", "-topology", "hub:3", "-rate", "3", "-seeds", "1", "-windows", "2", "-store", dir}
	if err := run(base); err != nil {
		t.Fatalf("first archived run: %v", err)
	}
	if err := run(append(base, "-seed", "43")); err != nil {
		t.Fatalf("second archived run: %v", err)
	}
	trace := filepath.Join(t.TempDir(), "trace.json")
	if err := run([]string{"run", "-name", "hub", "-trace", trace, "-store", dir}); err != nil {
		t.Fatalf("traced archived run: %v", err)
	}

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	runs := st.Runs()
	if len(runs) != 3 {
		t.Fatalf("archived runs = %d, want 3", len(runs))
	}
	var traced *store.Meta
	for i := range runs {
		if runs[i].Kind == "scenario" {
			traced = &runs[i]
		} else if runs[i].Config["topology"] != "hub:3" {
			t.Errorf("run %s config header not lifted: %v", runs[i].ID, runs[i].Config)
		}
	}
	if traced == nil {
		t.Fatal("no scenario-kind run archived")
	}
	if !traced.HasTrace() || !*traced.TraceValid {
		t.Fatalf("traced run missing valid trace badge: %+v", traced)
	}
	if _, err := st.Trace(traced.ID); err != nil {
		t.Fatalf("stored trace unreadable: %v", err)
	}
	if traced.Time == "" {
		t.Error("archived traced run has no timestamp in the index")
	}
	_, payload, err := st.Get(traced.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(payload, []byte(`"spec"`)) || !bytes.Contains(payload, []byte(`"assertions"`)) {
		t.Error("archived traced run is not a scenario report")
	}

	points, err := st.Trend("topo.Sample.BlocksPerSec", "experiment")
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("experiment trend points = %d, want 2", len(points))
	}
	for _, p := range points {
		if p.Value <= 0 {
			t.Errorf("trend value %v not positive", p.Value)
		}
	}
}
