package scenario

import (
	"strings"
	"testing"
	"time"
)

// TestStuckPacketsDetected plants a permanent whole-link partition
// under live traffic: commitments survive to the deadline and the
// stuck-packet invariant must fire (the planted-violation mechanism the
// chaos-search fixture relies on).
func TestStuckPacketsDetected(t *testing.T) {
	spec := Spec{
		Name:     "stuck",
		Topology: TopologySpec{Preset: "two"},
		Workload: WorkloadSpec{Rate: 1, Windows: 1},
		Chaos: []EventSpec{
			{At: Duration(500 * time.Millisecond), Kind: "partition", Edge: 0},
		},
		Seed:  5,
		Until: Duration(90 * time.Second),
	}
	rep, err := Run(spec, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed() {
		t.Fatal("permanent partition produced no violations")
	}
	found := false
	for _, v := range rep.Violations {
		if v.Assertion == AssertNoStuckPackets {
			found = true
			if !strings.Contains(v.Detail, "stuck at deadline") {
				t.Errorf("unexpected detail: %s", v.Detail)
			}
		}
	}
	if !found {
		t.Errorf("no %s violation among %v", AssertNoStuckPackets, rep.Violations)
	}
}

// TestCleanRunHoldsAllAssertions: an unfaulted two-chain run settles
// every packet and conserves voucher supply.
func TestCleanRunHoldsAllAssertions(t *testing.T) {
	spec := Spec{
		Name:     "clean",
		Topology: TopologySpec{Preset: "two"},
		Workload: WorkloadSpec{Rate: 2, Windows: 1},
		Seed:     11,
	}
	rep, err := Run(spec, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation on clean run: %s", v)
	}
	if len(rep.Assertions) != len(DefaultAssertions()) {
		t.Errorf("default assertion set not resolved: %v", rep.Assertions)
	}
}

// TestTimeoutRefundsHold: the timeoutstorm builtin forces mid-route hop
// timeouts; once quiescent, every refund must have unwound (and the
// conservation invariant must survive the unwinding).
func TestTimeoutRefundsHold(t *testing.T) {
	e, ok := Lookup("timeoutstorm")
	if !ok {
		t.Fatal("timeoutstorm builtin missing")
	}
	rep, err := Run(e.Spec, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
}

// TestConservationSeesVouchers: after a forwarded multi-hop run the
// final chain holds nested vouchers; the conservation walk must resolve
// their traces through both links without reporting violations (a
// mis-mapped counterparty channel would flag every voucher).
func TestConservationSeesVouchers(t *testing.T) {
	e, ok := Lookup("pfmroute")
	if !ok {
		t.Fatal("pfmroute builtin missing")
	}
	rep, err := Run(e.Spec, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.Result.RoutesCompleted != 2 {
		t.Errorf("routes completed = %d, want 2", rep.Result.RoutesCompleted)
	}
}

// TestLostClearQueryIsRetried: under random loss a relayer's clearing
// pass can lose the very QueryBlockEvents that re-scans a missed height.
// The height used to be forgotten at that point and its 100-packet batch
// stayed in flight for good (19 of seeds 1-60 on this spec, seed 4 among
// them); it must go back on the list for the next pass.
func TestLostClearQueryIsRetried(t *testing.T) {
	spec := Spec{
		Name:     "clear-lost-query",
		Topology: TopologySpec{Preset: "line:3"},
		Deploy:   DeploySpec{Standby: true, ClearIntervalBlocks: 1},
		Workload: WorkloadSpec{Rate: 20, Windows: 12},
		Chaos: []EventSpec{
			{At: Duration(20 * time.Second), Kind: "drop-burst", Edge: 1, ExtraDrop: 0.2},
			{At: Duration(50 * time.Second), Kind: "drop-burst", Edge: 1},
		},
		Assertions:   []string{AssertNoStuckPackets},
		Seed:         4,
		SettleBlocks: 40,
	}
	sc, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, dep, err := sc.RunDeployed(spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range Check(dep, spec.Assertions) {
		t.Errorf("violation: %s", v)
	}
	if dep.Net.Dropped() == 0 {
		t.Error("the burst dropped nothing: the test no longer exercises a lost query")
	}
}
