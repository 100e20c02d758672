package experiments

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"ibcbench/internal/metrics"
	"ibcbench/internal/scenario"
	"ibcbench/internal/topo"
)

// The paper's LAN variant of the two-chain testbed (`regions: "lan"`)
// completes a transfer faster than the 200 ms WAN default.
func TestTwoChainLANIsFaster(t *testing.T) {
	run := func(regions string) float64 {
		spec := testbedSpec("lan-"+regions, topo.Workload{Transfers: 1, Windows: 1})
		spec.Regions = regions
		spec.Until = scenario.Duration(2 * time.Minute)
		rep, err := scenario.Run(spec, 12, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Passed() {
			t.Fatalf("regions %q: %v", regions, rep.Violations)
		}
		if lat := rep.Result.Edges[0].Latency; lat.N != 1 {
			t.Fatalf("regions %q: completions = %d", regions, lat.N)
		}
		return rep.Result.Edges[0].Latency.Mean
	}
	if wan, lan := run(""), run("lan"); lan >= wan {
		t.Fatalf("LAN latency (%.3fs) not below WAN (%.3fs)", lan, wan)
	}
}

func TestSeriesRenderSortsByX(t *testing.T) {
	s := Series{Name: "n", XLabel: "x"}
	s.Add(300, metrics.Summarize([]float64{3}))
	s.Add(100, metrics.Summarize([]float64{1}))
	var sb strings.Builder
	s.Render(&sb)
	out := sb.String()
	if strings.Index(out, "100") > strings.Index(out, "300") {
		t.Fatalf("series not sorted:\n%s", out)
	}
}

func TestForwardingComparisonShape(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // a serial pool
	if _, err := ForwardingComparison(RunContext{Seeds: 1}, "line:3", 0); err == nil {
		t.Fatal("zero transfers per route accepted")
	}
	res, err := ForwardingComparison(RunContext{Seeds: 1}, "line:3", 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transfers != 2 || len(res.Rows) != 2 {
		t.Fatalf("rows = %d (transfers %d), want the 1- and 2-hop curves", len(res.Rows), res.Transfers)
	}
	for _, row := range res.Rows {
		if row.SeqCompleted != 1 || row.FwdCompleted != 1 {
			t.Fatalf("hops %d: completed %d/%d", row.Hops, row.SeqCompleted, row.FwdCompleted)
		}
	}
	// Single-hop routes are identical in both modes (no middleware leg);
	// multi-hop forwarded routes must beat sequential legs.
	multi := res.Rows[1]
	if multi.Hops != 2 || multi.Forwarded.Mean >= multi.Sequential.Mean {
		t.Fatalf("2-hop forwarded %.1fs not under sequential %.1fs",
			multi.Forwarded.Mean, multi.Sequential.Mean)
	}
	if multi.Speedup <= 1 {
		t.Fatalf("speedup = %.2f", multi.Speedup)
	}
}
