package scenario

import (
	"os"
	"path/filepath"
	"testing"

	"ibcbench/internal/topo"
)

// Set-up cost guard: one Parse + Compile + topo.Deploy of each benchmark
// workload spec, counted in allocations. This is the deterministic twin
// of the benchmark's setup_s (which times the same three calls and moves
// with host noise): work that a packet-path optimisation pushes into
// construction — a table, a pool, a pre-sized map — shows here exactly.
// The ceilings are the measured counts plus the one-allocation jitter:
// 433/1421/866/4211/4297 since Compile sorts edgeRates keys with
// sort.Strings. Lower them when set-up gets cheaper, and treat a rise as
// a regression to explain.
func TestSetupAllocsPerWorkload(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are counted")
	}
	for _, w := range []struct {
		name    string
		ceiling float64 // the last digit moves by one between runs
	}{
		{"two-peak", 434},
		{"hub4-2r-proofs", 1422},
		{"line3-pfm-chaos", 867},
		{"mesh8", 4212},
		{"mesh8-par2", 4298},
	} {
		data, err := os.ReadFile(filepath.Join("..", "..", "bench", "workloads", w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(10, func() {
			spec, err := Parse(data)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := Compile(spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sc.Deploy
			cfg.Seed = 11
			if _, err := topo.Deploy(sc.Topology, cfg); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per set-up", w.name, got)
		if got > w.ceiling {
			t.Errorf("%s: set-up took %.0f allocations, ceiling %.0f", w.name, got, w.ceiling)
		}
	}
}
