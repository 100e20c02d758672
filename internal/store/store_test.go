package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ibcbench/internal/metrics"
	"ibcbench/internal/topo"
)

// doc builds a minimal -out-style payload: a config header plus one
// metric leaf.
func doc(topology string, seed int64, blocksPerSec float64) []byte {
	return []byte(fmt.Sprintf(`{
  "config": {"topology": %q, "seed": %d, "rate": 5},
  "topo": {"Sample": {"BlocksPerSec": %v}, "Throughput": {"Mean": 1.0}}
}
`, topology, seed, blocksPerSec))
}

func open(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestIngestAndGetRoundTrip(t *testing.T) {
	s := open(t, t.TempDir())
	payload := doc("hub:3", 42, 0.8)
	m, created, err := s.Ingest("experiment", "abc123", "2026-08-08T00:00:00Z", payload)
	if err != nil {
		t.Fatal(err)
	}
	if !created || m.Seq != 1 || m.Seed != 42 || m.Commit != "abc123" {
		t.Fatalf("meta = %+v created=%v", m, created)
	}
	if m.Config["topology"] != "hub:3" {
		t.Fatalf("config header not lifted: %v", m.Config)
	}
	got, back, err := s.Get(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != m.ID || !bytes.Equal(back, payload) {
		t.Fatalf("payload did not round-trip byte-identically")
	}
}

// TestResultJSONRoundTripByteIdentity archives a real topo.Result —
// including a metrics-registry snapshot — and pins that the archived
// bytes are exactly the marshaled input.
func TestResultJSONRoundTripByteIdentity(t *testing.T) {
	res := &topo.Result{
		Name: "two", Seed: 7, Duration: 90 * time.Second,
		Blocks: 18, BlocksPerSec: 0.2,
		Edges: []topo.EdgeReport{{
			Edge: 0, From: "ibc-0", To: "ibc-1",
			Completion: map[metrics.Status]int{metrics.StatusCompleted: 10},
			Latency:    metrics.Summarize([]float64{25.1, 25.2, 25.3}),
		}},
		Total:      map[metrics.Status]int{metrics.StatusCompleted: 10},
		Throughput: 0.11,
	}
	payload, err := json.MarshalIndent(map[string]any{
		"config": map[string]any{"topology": "two", "seed": 7},
		"result": res,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	s := open(t, t.TempDir())
	m, _, err := s.Ingest("scenario", "abc123", "2026-08-08T00:00:00Z", payload)
	if err != nil {
		t.Fatal(err)
	}
	_, back, err := s.Get(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, payload) {
		t.Fatalf("archived Result JSON differs from input:\n%s\nvs\n%s", back, payload)
	}
}

// TestIdempotentReingest: posting the identical run (same kind, commit,
// timestamp, bytes) must be a no-op returning the original meta.
func TestIdempotentReingest(t *testing.T) {
	s := open(t, t.TempDir())
	payload := doc("hub:3", 42, 0.8)
	m1, created1, err := s.Ingest("experiment", "abc", "t0", payload)
	if err != nil || !created1 {
		t.Fatalf("first ingest: %v created=%v", err, created1)
	}
	m2, created2, err := s.Ingest("experiment", "abc", "t0", payload)
	if err != nil {
		t.Fatal(err)
	}
	if created2 || m2.ID != m1.ID || m2.Seq != m1.Seq {
		t.Fatalf("re-ingest not idempotent: %+v vs %+v created=%v", m2, m1, created2)
	}
	if n := len(s.Runs()); n != 1 {
		t.Fatalf("%d runs after re-ingest, want 1", n)
	}
	// A different timestamp is a different run of the same content.
	_, created3, err := s.Ingest("experiment", "abc", "t1", payload)
	if err != nil || !created3 {
		t.Fatalf("new-timestamp ingest: %v created=%v", err, created3)
	}
}

// TestTruncatedIndexRecovery simulates a crash mid-append: a torn
// (unterminated or corrupt) index tail is dropped on open, the journal
// truncated back to the last intact line, and ingest continues cleanly.
func TestTruncatedIndexRecovery(t *testing.T) {
	for name, tear := range map[string]string{
		"unterminated": `{"id":"deadbeef","seq":9,"kind":"exp`,
		"corrupt-json": "not json at all\n",
		"id-less":      `{"seq": 9}` + "\n",
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := open(t, dir)
			var ids []string
			for i := 0; i < 3; i++ {
				m, _, err := s.Ingest("experiment", "c", fmt.Sprintf("t%d", i), doc("hub:3", int64(i), 0.8))
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, m.ID)
			}
			s.Close()
			idx := filepath.Join(dir, "index.jsonl")
			f, err := os.OpenFile(idx, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(tear); err != nil {
				t.Fatal(err)
			}
			f.Close()

			re := open(t, dir)
			runs := re.Runs()
			if len(runs) != 3 {
				t.Fatalf("recovered %d runs, want 3", len(runs))
			}
			for i, m := range runs {
				if m.ID != ids[i] || m.Seq != int64(i+1) {
					t.Fatalf("run %d = %+v, want ID %s seq %d", i, m, ids[i], i+1)
				}
			}
			// The journal is clean again: a fresh ingest lands and a fresh
			// replay sees all four runs.
			if _, created, err := re.Ingest("experiment", "c", "t9", doc("hub:3", 9, 0.9)); err != nil || !created {
				t.Fatalf("post-recovery ingest: %v created=%v", err, created)
			}
			re.Close()
			if got := len(open(t, dir).Runs()); got != 4 {
				t.Fatalf("%d runs after recovery+ingest, want 4", got)
			}
		})
	}
}

// TestConcurrentIngest hammers one store from many goroutines; every
// run must land with a unique sequence number and survive a replay.
func TestConcurrentIngest(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	const n = 24
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, created, err := s.Ingest("experiment", "c", fmt.Sprintf("t%d", i), doc("hub:3", int64(i), float64(i)))
			if err == nil && !created {
				err = fmt.Errorf("ingest %d deduplicated", i)
			}
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	runs := s.Runs()
	if len(runs) != n {
		t.Fatalf("%d runs, want %d", len(runs), n)
	}
	seen := map[int64]bool{}
	for _, m := range runs {
		if seen[m.Seq] {
			t.Fatalf("duplicate seq %d", m.Seq)
		}
		seen[m.Seq] = true
	}
	s.Close()
	if got := len(open(t, dir).Runs()); got != n {
		t.Fatalf("replay found %d runs, want %d", got, n)
	}
}

func TestAttachTraceUpdatesJournal(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	m, _, err := s.Ingest("scenario", "c", "t0", doc("hub:3", 1, 0.8))
	if err != nil {
		t.Fatal(err)
	}
	trace := []byte(`{"traceEvents":[{"ph":"X","ts":0,"dur":1,"name":"b"}]}`)
	upd, err := s.AttachTrace(m.ID, trace, true)
	if err != nil {
		t.Fatal(err)
	}
	if !upd.HasTrace() || !*upd.TraceValid {
		t.Fatalf("trace not recorded: %+v", upd)
	}
	back, err := s.Trace(m.ID)
	if err != nil || !bytes.Equal(back, trace) {
		t.Fatalf("trace round-trip: %v", err)
	}
	// The update is journaled: a replay keeps the badge and the seq.
	s.Close()
	runs := open(t, dir).Runs()
	if len(runs) != 1 || !runs[0].HasTrace() || runs[0].Seq != 1 {
		t.Fatalf("replayed meta = %+v", runs)
	}
	if _, err := open(t, dir).Trace("unknown"); err == nil {
		t.Fatal("trace of unknown run accepted")
	}
}

func TestTrendOrderAndValues(t *testing.T) {
	s := open(t, t.TempDir())
	// Two hub:3 runs, one config-changed (mesh:4) run in between, then a
	// final hub:3 run — the reference config for compatibility is the
	// latest run's (hub:3), so the mesh point is annotated incompatible.
	if _, _, err := s.Ingest("experiment", "c0", "t0", doc("hub:3", 42, 0.8)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Ingest("experiment", "c1", "t1", doc("hub:3", 42, 0.9)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Ingest("experiment", "cx", "tx", doc("mesh:4", 42, 9.9)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Ingest("bench", "cb", "tb", []byte(`{"bench": {"BenchmarkNetemSend": {"ns/op": 100}}}`)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Ingest("experiment", "c2", "t2", doc("hub:3", 42, 1.0)); err != nil {
		t.Fatal(err)
	}
	points, err := s.Trend("topo.Sample.BlocksPerSec", "experiment")
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("%d points, want 4 (bench run must not leak in): %+v", len(points), points)
	}
	wantValues := []float64{0.8, 0.9, 9.9, 1.0}
	wantCompat := []bool{true, true, false, true}
	for i, p := range points {
		if p.Value != wantValues[i] || p.Compatible != wantCompat[i] {
			t.Fatalf("point %d = %+v, want value %v compatible %v", i, p, wantValues[i], wantCompat[i])
		}
		if i > 0 && p.Seq <= points[i-1].Seq {
			t.Fatalf("sequence not monotone: %+v", points)
		}
	}
	bench, err := s.Trend("bench.BenchmarkNetemSend.ns/op", "bench")
	if err != nil || len(bench) != 1 || bench[0].Value != 100 {
		t.Fatalf("bench trend = %v (%v)", bench, err)
	}
	if _, err := s.Trend("", ""); err == nil {
		t.Fatal("empty metric accepted")
	}
}

// TestRegressionRollingMedian: a synthetically degraded latest run is
// flagged against the rolling median of the prior compatible runs,
// while a healthy one passes; incompatible (config-changed) runs are
// excluded from the window instead of tripping the detector.
func TestRegressionRollingMedian(t *testing.T) {
	s := open(t, t.TempDir())
	for i, v := range []float64{100, 101, 99, 100, 102} {
		if _, _, err := s.Ingest("experiment", "c", fmt.Sprintf("t%d", i), doc("hub:3", 42, v)); err != nil {
			t.Fatal(err)
		}
	}
	// Healthy latest: within tolerance of the median (100).
	if _, _, err := s.Ingest("experiment", "c", "t-ok", doc("hub:3", 42, 101)); err != nil {
		t.Fatal(err)
	}
	reg, err := s.CheckRegression("topo.Sample.BlocksPerSec", "experiment", 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Flagged || reg.Window != 5 || reg.Median != 100 {
		t.Fatalf("healthy run flagged: %+v", reg)
	}
	// Degraded latest: 40% below the rolling median.
	if _, _, err := s.Ingest("experiment", "c", "t-bad", doc("hub:3", 42, 60)); err != nil {
		t.Fatal(err)
	}
	reg, err = s.CheckRegression("topo.Sample.BlocksPerSec", "experiment", 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reg.Flagged || reg.Latest.Value != 60 {
		t.Fatalf("degraded run not flagged: %+v", reg)
	}
	if reg.DeltaPct > -39 || reg.DeltaPct < -41 {
		t.Fatalf("DeltaPct = %v, want ~-40", reg.DeltaPct)
	}
	// A config change starts a fresh trajectory: the new run has no
	// compatible history, so nothing is flagged.
	if _, _, err := s.Ingest("experiment", "c", "t-new", doc("mesh:4", 42, 10)); err != nil {
		t.Fatal(err)
	}
	reg, err = s.CheckRegression("topo.Sample.BlocksPerSec", "experiment", 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Flagged || reg.Window != 0 {
		t.Fatalf("config change tripped the detector: %+v", reg)
	}
}

func TestRunIDStableAndContentAddressed(t *testing.T) {
	cfg := map[string]any{"topology": "hub:3", "seed": 42.0}
	a := RunID("experiment", "c", 42, "t0", cfg, []byte(`{"m":1}`))
	b := RunID("experiment", "c", 42, "t0", cfg, []byte(`{"m":1}`))
	if a != b {
		t.Fatalf("identical content hashed differently: %s vs %s", a, b)
	}
	if RunID("experiment", "c", 42, "t1", cfg, []byte(`{"m":1}`)) == a {
		t.Fatal("timestamp not part of the run key")
	}
	if RunID("experiment", "c", 42, "t0", cfg, []byte(`{"m":2}`)) == a {
		t.Fatal("payload not part of the run key")
	}
	if len(a) != 16 {
		t.Fatalf("ID length %d, want 16", len(a))
	}
}
