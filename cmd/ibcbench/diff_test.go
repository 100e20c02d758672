package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDiffReportsDeltas(t *testing.T) {
	oldPath := writeTemp(t, "old.json", `{
		"topo": {"Throughput": {"Mean": 100.0, "N": 3}, "Spec": "hub:4"},
		"rows": [{"Rate": 20, "TFPS": 80.0}],
		"gone": 1
	}`)
	newPath := writeTemp(t, "new.json", `{
		"topo": {"Throughput": {"Mean": 110.0, "N": 3}, "Spec": "hub:4"},
		"rows": [{"Rate": 20, "TFPS": 72.0}],
		"fresh": true
	}`)
	var sb strings.Builder
	if err := runDiff(oldPath, newPath, -1, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"topo.Throughput.Mean", "+10", "+10.0%",
		"rows[0].TFPS", "-8", "-10.0%",
		"added:   fresh", "removed: gone",
		"3 unchanged",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("diff output missing %q:\n%s", want, out)
		}
	}
	// Unchanged metrics (Spec, N, Rate) are not listed as changed rows.
	if strings.Contains(out, "topo.Spec ") {
		t.Fatalf("unchanged metric listed:\n%s", out)
	}
}

func TestDiffWarnsOnConfigMismatch(t *testing.T) {
	oldPath := writeTemp(t, "old.json", `{
		"config": {"topology": "hub:4", "regions": "", "seed": 42},
		"topo": {"Throughput": 100.0}
	}`)
	newPath := writeTemp(t, "new.json", `{
		"config": {"topology": "hub:6", "regions": "3wan", "seed": 42},
		"topo": {"Throughput": 80.0}
	}`)
	var sb strings.Builder
	if err := runDiff(oldPath, newPath, -1, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"WARNING", "different configurations",
		"config.topology: hub:4 -> hub:6",
		"config.regions:  -> 3wan",
		"topo.Throughput", // metrics still diffed after the warning
		"1 changed",       // ...but config fields don't count as metrics
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("diff output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "config.seed:") {
		t.Fatalf("matching config field warned about:\n%s", out)
	}
}

// TestDiffConfigOnlyDifference: documents differing only in their config
// headers warn but report no metric differences (regression gates key on
// the changed-metric count).
func TestDiffConfigOnlyDifference(t *testing.T) {
	oldPath := writeTemp(t, "old.json", `{
		"config": {"topology": "hub:4"},
		"topo": {"Throughput": 100.0}
	}`)
	newPath := writeTemp(t, "new.json", `{
		"config": {"topology": "hub:6"},
		"topo": {"Throughput": 100.0}
	}`)
	var sb strings.Builder
	if err := runDiff(oldPath, newPath, -1, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "WARNING") || !strings.Contains(out, "no differences") {
		t.Fatalf("config-only diff should warn yet report no metric differences:\n%s", out)
	}
}

func TestDiffNoWarningOnMatchingConfigs(t *testing.T) {
	mk := func(name string, tput float64) string {
		return writeTemp(t, name, `{
			"config": {"topology": "hub:4", "seed": 42},
			"topo": {"Throughput": `+fmtFloat(tput)+`}
		}`)
	}
	var sb strings.Builder
	if err := runDiff(mk("old.json", 100), mk("new.json", 90), -1, &sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "WARNING") {
		t.Fatalf("matching configs warned:\n%s", sb.String())
	}
	// Pre-header documents (no "config" key) are compared silently.
	a := writeTemp(t, "a.json", `{"topo": 1}`)
	b := writeTemp(t, "b.json", `{"topo": 2}`)
	sb.Reset()
	if err := runDiff(a, b, -1, &sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "WARNING") {
		t.Fatalf("header-less files warned:\n%s", sb.String())
	}
}

func fmtFloat(f float64) string { return strings.TrimRight(strings.TrimRight(fmtNum(f), "0"), ".") }

func TestDiffIdenticalFiles(t *testing.T) {
	p := writeTemp(t, "same.json", `{"a": 1, "b": {"c": [1, 2]}}`)
	var sb strings.Builder
	if err := runDiff(p, p, -1, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no differences") {
		t.Fatalf("identical files reported differences:\n%s", sb.String())
	}
}

func TestDiffMissingFile(t *testing.T) {
	p := writeTemp(t, "a.json", `{}`)
	var sb strings.Builder
	if err := runDiff(p, filepath.Join(t.TempDir(), "missing.json"), -1, &sb); err == nil {
		t.Fatal("missing file accepted")
	}
}

// --- fail-on-change CI gate --------------------------------------------------

func TestDiffFailOnChangeTrips(t *testing.T) {
	oldPath := writeTemp(t, "old.json", `{"bench": {"BenchmarkVoteFanout/vals-13": {"ns/op": 100000.0}}}`)
	newPath := writeTemp(t, "new.json", `{"bench": {"BenchmarkVoteFanout/vals-13": {"ns/op": 150000.0}}}`)
	var sb strings.Builder
	err := runDiff(oldPath, newPath, 20, &sb)
	if err == nil {
		t.Fatalf("+50%% move within a 20%% tolerance did not trip the gate:\n%s", sb.String())
	}
	if !strings.Contains(err.Error(), "beyond") {
		t.Fatalf("gate error %q does not name the tolerance", err)
	}
	if !strings.Contains(sb.String(), "exceeds") {
		t.Fatalf("gate output does not list the exceeding metric:\n%s", sb.String())
	}
}

func TestDiffFailOnChangeWithinTolerance(t *testing.T) {
	oldPath := writeTemp(t, "old.json", `{"m": {"a": 100.0, "b": 10.0}}`)
	newPath := writeTemp(t, "new.json", `{"m": {"a": 110.0, "b": 10.5}}`)
	var sb strings.Builder
	// +10% and +5% moves under a 25% tolerance: exit zero.
	if err := runDiff(oldPath, newPath, 25, &sb); err != nil {
		t.Fatalf("moves within tolerance tripped the gate: %v\n%s", err, sb.String())
	}
}

func TestDiffFailOnChangeZeroBaseline(t *testing.T) {
	// A metric moving off zero has no percent change; an armed gate trips.
	oldPath := writeTemp(t, "old.json", `{"errors": 0}`)
	newPath := writeTemp(t, "new.json", `{"errors": 3}`)
	var sb strings.Builder
	if err := runDiff(oldPath, newPath, 50, &sb); err == nil {
		t.Fatalf("0 -> 3 move did not trip the gate:\n%s", sb.String())
	}
	// Unarmed (negative tolerance): report only.
	sb.Reset()
	if err := runDiff(oldPath, newPath, -1, &sb); err != nil {
		t.Fatalf("unarmed diff returned error: %v", err)
	}
}

func TestDiffFailOnChangeIgnoresAddedRemoved(t *testing.T) {
	// New or retired benchmarks must not fail the gate.
	oldPath := writeTemp(t, "old.json", `{"bench": {"BenchmarkOld": {"ns/op": 5.0}}}`)
	newPath := writeTemp(t, "new.json", `{"bench": {"BenchmarkNew": {"ns/op": 7.0}}}`)
	var sb strings.Builder
	if err := runDiff(oldPath, newPath, 10, &sb); err != nil {
		t.Fatalf("added/removed metrics tripped the gate: %v\n%s", err, sb.String())
	}
}

// An armed gate cannot be disarmed by a header change: mismatched config
// headers are an error naming the differing fields, whether or not a
// metric moved. Unarmed, the mismatch stays a warning.
func TestDiffFailOnChangeErrorsOnConfigMismatch(t *testing.T) {
	oldPath := writeTemp(t, "old.json", `{
		"config": {"topology": "hub:4", "forwarding": false, "seed": 42},
		"topo": {"Throughput": 100.0}
	}`)
	for _, tput := range []string{"10.0", "100.0"} {
		newPath := writeTemp(t, "new.json", `{
			"config": {"topology": "hub:6", "seed": 42},
			"topo": {"Throughput": `+tput+`}
		}`)
		var sb strings.Builder
		err := runDiff(oldPath, newPath, 5, &sb)
		if err == nil {
			t.Fatalf("throughput %s: armed gate passed across mismatched configs:\n%s", tput, sb.String())
		}
		for _, field := range []string{"topology", "forwarding"} {
			if !strings.Contains(err.Error(), field) {
				t.Errorf("throughput %s: gate error %q does not name %s", tput, err, field)
			}
		}
		if strings.Contains(err.Error(), "seed") {
			t.Errorf("throughput %s: gate error %q names a matching field", tput, err)
		}
		sb.Reset()
		if err := runDiff(oldPath, newPath, -1, &sb); err != nil || !strings.Contains(sb.String(), "WARNING") {
			t.Errorf("throughput %s: unarmed diff: err=%v, want a warning only:\n%s", tput, err, sb.String())
		}
	}
}

// --- bench2json --------------------------------------------------------------

func TestBench2JSONParsesAndAverages(t *testing.T) {
	raw := `goos: linux
goarch: amd64
pkg: ibcbench
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkVoteFanout/vals-13-8         	       3	  30000000 ns/op	        12.00 blocks-per-vmin
BenchmarkVoteFanout/vals-13-8         	       3	  32000000 ns/op	        12.00 blocks-per-vmin
BenchmarkVoteFanout/vals-13-8         	       3	  34000000 ns/op	        12.00 blocks-per-vmin
BenchmarkNetemSend-8                  	       3	       100 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	ibcbench	1.234s
`
	doc, err := parseBenchOutput(strings.NewReader(raw), 8)
	if err != nil {
		t.Fatal(err)
	}
	fan, ok := doc["BenchmarkVoteFanout/vals-13"]
	if !ok {
		t.Fatalf("GOMAXPROCS suffix not stripped: %v", doc)
	}
	// On a single-proc run go test appends no suffix; a name ending in
	// digits must survive unstripped.
	doc1, err := parseBenchOutput(strings.NewReader("BenchmarkVoteFanout/vals-13 \t 3 \t 100 ns/op\n"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := doc1["BenchmarkVoteFanout/vals-13"]; !ok {
		t.Fatalf("suffix-less name mangled: %v", doc1)
	}
	if got := fan["ns/op"]; got != 32000000 {
		t.Fatalf("ns/op mean = %v, want 32000000 (average of 3 repeats)", got)
	}
	if got := fan["blocks-per-vmin"]; got != 12 {
		t.Fatalf("custom metric = %v, want 12", got)
	}
	if got := doc["BenchmarkNetemSend"]["allocs/op"]; got != 0 {
		t.Fatalf("allocs/op = %v, want 0", got)
	}
}

func TestBench2JSONRoundTripsThroughDiff(t *testing.T) {
	// The converter's output must be diffable: same shape both sides,
	// gate trips on a regression beyond tolerance.
	mk := func(name string, ns float64) string {
		raw := writeTemp(t, name+".txt",
			"BenchmarkVoteFanout/vals-13-8 \t 3 \t "+fmtFloat(ns)+" ns/op\n")
		out := filepath.Join(t.TempDir(), name+".json")
		if err := runBench2JSON(raw, out, os.Stdout); err != nil {
			t.Fatal(err)
		}
		return out
	}
	oldJSON, newJSON := mk("old", 100000), mk("new", 200000)
	var sb strings.Builder
	if err := runDiff(oldJSON, newJSON, 25, &sb); err == nil {
		t.Fatalf("2x bench regression passed the 25%% gate:\n%s", sb.String())
	}
}

func TestBench2JSONRejectsEmptyInput(t *testing.T) {
	p := writeTemp(t, "empty.txt", "no benchmarks here\n")
	if err := runBench2JSON(p, "", io.Discard); err == nil {
		t.Fatal("empty bench output accepted")
	}
}
