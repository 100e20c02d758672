package experiments

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"ibcbench/internal/metrics"
	"ibcbench/internal/scenario"
)

// The paper's LAN variant of the two-chain testbed (`regions: "lan"`)
// completes a transfer faster than the 200 ms WAN default.
func TestTwoChainLANIsFaster(t *testing.T) {
	run := func(regions string) float64 {
		spec := testbedSpec("lan-"+regions, scenario.WorkloadSpec{Transfers: 1, Windows: 1})
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

func TestFig12Shape(t *testing.T) {
	if testing.Short() {
		// The shape assertions (minutes-scale total, pull domination) are
		// calibrated to the paper's 5,000-transfer burst; there is no
		// smaller size with the same shape.
		t.Skip("heavy single-block burst; run without -short")
	}
	res, err := Fig12(5000, 42)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 5000 {
		t.Fatalf("completed = %d of 5000", res.Completed)
	}
	// Paper: ~455 s total with the two data pulls at ~69%. Our page-cost
	// model preserves the order of magnitude and the pull domination,
	// not the absolute totals.
	if res.Total < 60*time.Second || res.Total > 650*time.Second {
		t.Fatalf("total = %v, want minutes-scale", res.Total)
	}
	pulls := res.TransferDataPull + res.RecvDataPull
	frac := pulls.Seconds() / res.Total.Seconds()
	if frac < 0.5 || frac > 0.95 {
		t.Fatalf("data pulls = %.0f%% of total, want dominant (~69%% in paper)", 100*frac)
	}
	if res.AckPhase > res.TransferPhase {
		t.Fatalf("ack phase (%v) should be the shortest (transfer %v)",
			res.AckPhase, res.TransferPhase)
	}
}

func TestFig13Shape(t *testing.T) {
	if testing.Short() {
		// The helps-then-inverts crossover only appears at the paper's
		// full 5,000-transfer volume.
		t.Skip("heavy strategy sweep; run without -short")
	}
	rows, err := Fig13(5000, []int{1, 16, 64}, 7)
	if err != nil {
		t.Fatal(err)
	}
	byBlocks := map[int]Fig13Row{}
	for _, r := range rows {
		byBlocks[r.Blocks] = r
		if r.Completed != 5000 {
			t.Fatalf("strategy %d completed %d", r.Blocks, r.Completed)
		}
	}
	// Paper: 455s (1 block) -> 138s (16 blocks) -> 441s (64 blocks):
	// spreading helps up to a point, then inverts.
	if byBlocks[16].Completion >= byBlocks[1].Completion {
		t.Fatalf("16-block (%v) not faster than 1-block (%v)",
			byBlocks[16].Completion, byBlocks[1].Completion)
	}
	if byBlocks[64].Completion <= byBlocks[16].Completion {
		t.Fatalf("64-block (%v) not slower than 16-block (%v)",
			byBlocks[64].Completion, byBlocks[16].Completion)
	}
	reduction := 1 - byBlocks[16].Completion.Seconds()/byBlocks[1].Completion.Seconds()
	if reduction < 0.4 {
		t.Fatalf("16-block reduction = %.0f%%, paper reports ~70%%", 100*reduction)
	}
}

func TestTendermintSweepShape(t *testing.T) {
	opt := Options{Seeds: 1, Rates: []int{500, 3000, 9000}, Windows: 8}
	if testing.Short() {
		// Drop the 9,000 rps point (stretched blocks dominate the cost)
		// and shrink the windows; the rising-throughput shape survives.
		opt.Rates = []int{500, 3000}
		opt.Windows = 5
	}
	res, err := Tendermint(opt)
	if err != nil {
		t.Fatal(err)
	}
	tput := map[int]float64{}
	for i, x := range res.Fig6.X {
		tput[int(x)] = res.Fig6.Y[i].Mean
	}
	if tput[3000] <= tput[500] {
		t.Fatalf("throughput at 3000 (%f) not above 500 (%f)", tput[3000], tput[500])
	}
	iv := map[int]float64{}
	for i, x := range res.Fig7.X {
		iv[int(x)] = res.Fig7.Y[i].Mean
	}
	if !testing.Short() && iv[9000] <= iv[500]*1.5 {
		t.Fatalf("interval at 9000 rps (%f) should exceed %f", iv[9000], iv[500])
	}
	for _, row := range res.Table1 {
		if row.Requested == 0 {
			t.Fatalf("row %+v has no requests", row)
		}
	}
}

// TestTable1RowsOrdered: at 7 000 rps the source node's RPC queue answers
// many broadcasts after the client gave up, yet their transactions
// entered the mempool and commit; every Table I row keeps requested >=
// submitted >= committed.
func TestTable1RowsOrdered(t *testing.T) {
	if testing.Short() {
		t.Skip("7 000 rps stretches blocks; run without -short")
	}
	res, err := Tendermint(Options{Seeds: 1, Rates: []int{7000}})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Table1 {
		if row.Committed == 0 || row.Requested < row.Submitted || row.Submitted < row.Committed {
			t.Errorf("row %+v: want requested >= submitted >= committed > 0", row)
		}
	}
}

func TestRelayerSweepShape(t *testing.T) {
	pts, err := RelayerSweep(Options{Seeds: 1, Rates: []int{20, 100, 300}, Windows: 30}, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// Rise towards the peak region (paper: ~140 rps), then decline.
	if pts[1].Throughput.Mean <= pts[0].Throughput.Mean {
		t.Fatalf("100rps (%f) not above 20rps (%f)",
			pts[1].Throughput.Mean, pts[0].Throughput.Mean)
	}
	if pts[2].Throughput.Mean >= pts[1].Throughput.Mean {
		t.Fatalf("300rps (%f) should fall below the peak (%f)",
			pts[2].Throughput.Mean, pts[1].Throughput.Mean)
	}
	if pts[0].Completed == 0 {
		t.Fatal("no completions at 20 rps")
	}
}

func TestGasTable(t *testing.T) {
	rows, err := GasTable(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Measured == 0 {
			t.Fatalf("no measured gas for %s", r.MsgType)
		}
		diff := float64(r.Measured) - float64(r.Paper)
		if diff < 0 {
			diff = -diff
		}
		if diff/float64(r.Paper) > 0.05 {
			t.Errorf("%s: measured %d vs paper %d", r.MsgType, r.Measured, r.Paper)
		}
	}
}

func TestWebSocketLimit(t *testing.T) {
	res, err := WebSocketLimit(5, 1000, 60)
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesLost == 0 {
		t.Fatal("giant block did not overflow the WebSocket frame limit")
	}
	if res.Stuck == 0 {
		t.Fatal("no stuck transfers despite lost frames and clear interval 0")
	}
	if res.Stuck <= res.Completed {
		t.Fatalf("stuck (%d) should dominate completed (%d), paper: 81.8%% vs 2.5%%",
			res.Stuck, res.Completed)
	}
}

func TestForwardingComparisonShape(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // a serial pool
	if _, err := ForwardingComparison(Options{Seeds: 1}, "line:3", 0); err == nil {
		t.Fatal("zero transfers per route accepted")
	}
	res, err := ForwardingComparison(Options{Seeds: 1}, "line:3", 2)
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
