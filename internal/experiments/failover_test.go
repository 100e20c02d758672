package experiments

import (
	"strings"
	"testing"

	"ibcbench/internal/metrics"
)

// TestFailoverShape runs the relayer-failover sweep on a small two-chain
// deployment and checks its structural guarantees: the fault-free
// baseline records no takeover, every faulted window activates the
// standby exactly once with downtime roughly tracking the window, and
// completion never degrades across windows (the standby absorbs the
// outage).
func TestFailoverShape(t *testing.T) {
	if testing.Short() {
		t.Skip("failover sweep runs several fault windows")
	}
	res, err := Failover(RunContext{Seeds: 1, Windows: 2, Regions: "3wan"}, "two", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(DefaultFaultWindows) {
		t.Fatalf("%d rows, want %d", len(res.Rows), len(DefaultFaultWindows))
	}
	base := res.Rows[0]
	if base.Window != 0 || base.Takeovers != 0 || base.Downtime.Mean != 0 {
		t.Fatalf("baseline row recorded faults: %+v", base)
	}
	want := base.Completed.Mean
	if want <= 0 {
		t.Fatalf("baseline completed nothing: %+v", base)
	}
	for _, row := range res.Rows[1:] {
		if row.Takeovers != 1 {
			t.Fatalf("window %v: %d takeovers, want 1", row.Window, row.Takeovers)
		}
		if row.Downtime.Mean <= 0 || row.Downtime.Mean > row.Window.Seconds() {
			t.Fatalf("window %v: downtime %.1fs outside (0, window]", row.Window, row.Downtime.Mean)
		}
		if row.Completed.Mean != want {
			t.Fatalf("window %v: completed %.0f, baseline %.0f", row.Window, row.Completed.Mean, want)
		}
		if row.StandbyRecv == 0 {
			t.Fatalf("window %v: standby relayed nothing", row.Window)
		}
		if row.Latency.Mean <= base.Latency.Mean {
			t.Fatalf("window %v: faulted latency %.1fs not above baseline %.1fs",
				row.Window, row.Latency.Mean, base.Latency.Mean)
		}
		if row.Backlog.Len() == 0 {
			t.Fatalf("window %v: no cleared-backlog curve", row.Window)
		}
	}
	var sb strings.Builder
	res.Render(&sb)
	for _, wantStr := range []string{"relayer failover", "backlog cleared", "3wan"} {
		if !strings.Contains(sb.String(), wantStr) {
			t.Fatalf("render missing %q:\n%s", wantStr, sb.String())
		}
	}
}

// TestFailoverRejectsBadInput covers spec validation.
func TestFailoverRejectsBadInput(t *testing.T) {
	if _, err := Failover(RunContext{Seeds: 1}, "ring:3", 2); err == nil {
		t.Fatal("bad topology accepted")
	}
	if _, err := Failover(RunContext{Seeds: 1, Regions: "mars"}, "two", 2); err == nil {
		t.Fatal("bad region preset accepted")
	}
	if _, err := Failover(RunContext{Seeds: 1}, "two", 0); err == nil {
		t.Fatal("zero rate accepted")
	}
}

// TestTopologySweepWithRegions: the topo sweep deploys on a region
// preset and still completes its workload.
func TestTopologySweepWithRegions(t *testing.T) {
	seeds := 2
	if testing.Short() {
		seeds = 1
	}
	res, err := TopologySweep(RunContext{Seeds: seeds, Windows: 2, Regions: "3wan"}, "two", 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput.Mean <= 0 {
		t.Fatalf("no throughput under region model: %+v", res.Throughput)
	}
	if res.Sample.Total[metrics.StatusCompleted] == 0 {
		t.Fatal("no completions under region model")
	}
	if _, err := TopologySweep(RunContext{Seeds: 1, Regions: "nowhere"}, "two", 2, false); err == nil {
		t.Fatal("bad region preset accepted")
	}
}
