package scenario

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"ibcbench/internal/chain"
	"ibcbench/internal/ibc"
	"ibcbench/internal/ibc/transfer"
	"ibcbench/internal/topo"
)

// TestStuckPacketsDetected plants a permanent whole-link partition
// under live traffic: commitments survive to the deadline and the
// stuck-packet invariant must fire (the planted-violation mechanism the
// chaos-search fixture relies on).
func TestStuckPacketsDetected(t *testing.T) {
	spec := Spec{
		Name:     "stuck",
		Topology: TopologySpec{Preset: "two"},
		Workload: topo.Workload{Rate: 1, Windows: 1},
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
		Workload: topo.Workload{Rate: 2, Windows: 1},
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
	rep, err := Run(timeoutstormSpec(), 0, nil)
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
	rep, err := Run(pfmrouteSpec(), 0, nil)
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
		Workload: topo.Workload{Rate: 20, Windows: 12},
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

// TestPlainTimeoutRefundsSender is RelayPacketTest's timeout case on
// the plaintimeout built-in: the relayer is cut off until every packet
// has expired, proves the timeouts once healed, and each sender ends
// with the balance it started with while the escrow holds nothing.
func TestPlainTimeoutRefundsSender(t *testing.T) {
	spec := plaintimeoutSpec()
	sc, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, dep, err := sc.RunDeployed(spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if v := Check(dep, DefaultAssertions()); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	src := dep.Chains[0]
	if _, _, _, refunded := src.Transfer.Stats(); refunded == 0 {
		t.Fatal("the transfer module refunded nothing")
	}
	const start = 1 << 50 // what workload.EnsureAccounts funds
	sent := 0
	eachSent(dep, func(c *chain.Chain, p *ibc.Packet) {
		if c != src {
			return
		}
		sent++
		var data transfer.PacketData
		if err := json.Unmarshal(p.Data, &data); err != nil {
			t.Fatal(err)
		}
		if got := src.App.Bank().Balance(data.Sender, data.Denom); got != start {
			t.Errorf("sender %s holds %d %s, started with %d", data.Sender, got, data.Denom, start)
		}
		escrow := transfer.EscrowAccount(p.SourcePort, p.SourceChannel)
		if got := src.App.Bank().Balance(escrow, data.Denom); got != 0 {
			t.Errorf("escrow %s still holds %d %s", escrow, got, data.Denom)
		}
	})
	if want := spec.Workload.Routes[0].Transfers; sent != want {
		t.Fatalf("source sent %d packets, want %d", sent, want)
	}
}

// receivedTimeoutSpec is plaintimeout with a five-block timeout and the
// relayer cut off from 11 s to 16 s: the packets' recv lands on the
// destination in a block whose frame the cut drops, while the relayer's
// confirmation of it hangs, and their timeouts elapse before either
// reaches the relayer.
func receivedTimeoutSpec(t *testing.T) Spec {
	t.Helper()
	spec := plaintimeoutSpec()
	route := spec.Workload.Routes[0]
	route.TimeoutBlocks = 5
	spec.Workload.Routes = []topo.Route{route}
	spec.Chaos = []EventSpec{
		{At: Duration(11 * time.Second), Kind: "partition", Edge: 0, Relayer: intp(0)},
		{At: Duration(16 * time.Second), Kind: "heal", Edge: 0, Relayer: intp(0)},
	}
	return spec
}

// TestReceivedPacketIsNotTimedOut: a relayer that built a MsgTimeout
// for the packets of receivedTimeoutSpec anyway had the source refund
// packets the destination had minted vouchers for, in performance mode
// where no non-membership proof stops it, and Check reported the voucher
// supply above the escrow.
func TestReceivedPacketIsNotTimedOut(t *testing.T) {
	spec := receivedTimeoutSpec(t)
	for seed := int64(1); seed <= 3; seed++ {
		sc, err := Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		_, dep, err := sc.RunDeployed(seed)
		if err != nil {
			t.Fatal(err)
		}
		if v := Check(dep, DefaultAssertions()); len(v) != 0 {
			t.Fatalf("seed %d: violations: %v", seed, v)
		}
	}
}

// TestFullProofsSurviveRelayerFaults runs full proofs through faults
// that make the relayer build a message after the source committed the
// next block: timeoutproofs with a relayer partition and clearing, and
// the failover built-in (a partition, a standby taking over). The state
// proves at its latest height only, so the relayer must prove there, not
// at the height it saw the event at (which panicked on both).
func TestFullProofsSurviveRelayerFaults(t *testing.T) {
	cleared := timeoutproofsSpec()
	cleared.Deploy.ClearIntervalBlocks = 1
	cleared.Chaos = []EventSpec{
		{At: Duration(3 * time.Second), Kind: "partition", Edge: 0, Relayer: intp(0)},
		{At: Duration(9 * time.Second), Kind: "heal", Edge: 0, Relayer: intp(0)},
	}
	standby := failoverSpec()
	standby.Deploy.FullProofs = true
	for _, spec := range []Spec{cleared, standby} {
		rep, err := Run(spec, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Passed() {
			t.Fatalf("%s: violations: %v", spec.Name, rep.Violations)
		}
	}
}

// TestRoundTripComesHome is RelayPacketTest's balance check carried
// around the roundtrip built-in's closed path: each leg spends what the
// previous one delivered, so once the route completes every route
// account is back at its starting balance on every chain, no voucher
// supply is outstanding and no escrow holds anything.
func TestRoundTripComesHome(t *testing.T) {
	spec := roundtripSpec()
	sc, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, dep, err := sc.RunDeployed(spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if v := Check(dep, DefaultAssertions()); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	route := spec.Workload.Routes[0]
	if res.RoutesCompleted != 1 {
		t.Fatalf("%d routes completed, want 1", res.RoutesCompleted)
	}
	origin := dep.Chains[route.Path[0]]
	const start = 1 << 50 // what workload.EnsureAccounts funds
	sent, vouchers := 0, map[string]bool{}
	eachSent(dep, func(c *chain.Chain, p *ibc.Packet) {
		sent++
		var data transfer.PacketData
		if err := json.Unmarshal(p.Data, &data); err != nil {
			t.Fatal(err)
		}
		if data.Receiver != data.Sender {
			t.Errorf("%s sent to %s: a round trip keeps one name", data.Sender, data.Receiver)
		}
		bank := c.App.Bank()
		want := uint64(0)
		if c == origin {
			want = start
		} else {
			vouchers[data.Denom] = true
			if got := bank.Supply(data.Denom); got != 0 {
				t.Errorf("%s: %d %s still in supply", c.ID, got, data.Denom)
			}
		}
		if got := bank.Balance(data.Sender, data.Denom); got != want {
			t.Errorf("%s: %s holds %d %s, started with %d", c.ID, data.Sender, got, data.Denom, want)
		}
		escrow := transfer.EscrowAccount(p.SourcePort, p.SourceChannel)
		if got := bank.Balance(escrow, data.Denom); got != 0 {
			t.Errorf("%s: escrow %s still holds %d %s", c.ID, escrow, got, data.Denom)
		}
	})
	if want := (len(route.Path) - 1) * route.Transfers; sent != want {
		t.Fatalf("the route sent %d packets, want %d", sent, want)
	}
	// One voucher on the middle chain, sent out and back, and the
	// voucher of a voucher on the far one.
	if len(vouchers) != 2 {
		t.Fatalf("vouchers sent %v, want two trace denoms", vouchers)
	}
}

// TestRelayerRetriesAfterPartition reaches the relayer's submission
// retry paths, which no built-in run does: with plaintimeout's partition
// moved to 16 s and a four-block timeout, a transaction the relayer
// broadcasts just before the link is cut is stranded by it. Broadcasts
// time out and back off, a sequence mismatch re-reads the account
// sequence, and the packets are still refunded with every assertion
// holding.
func TestRelayerRetriesAfterPartition(t *testing.T) {
	spec := plaintimeoutSpec()
	spec.Workload.Routes = []topo.Route{spec.Workload.Routes[0]}
	spec.Workload.Routes[0].TimeoutBlocks = 4
	spec.Chaos = append([]EventSpec(nil), spec.Chaos...)
	spec.Chaos[0].At = Duration(16 * time.Second)
	rep, err := Run(spec, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	st := rep.Result.Edges[0].Relayers[0]
	if st.SeqMismatchErrors != 1 || st.Retries != 2 || st.TimeoutsDelivered != 3 {
		t.Fatalf("relayer stats %+v: want 1 sequence mismatch, 2 retries and 3 timeouts delivered", st)
	}
}

// eachSent hands fn every packet the deployment's chains sent, chain by
// chain in block order.
func eachSent(d *topo.Deployment, fn func(src *chain.Chain, p *ibc.Packet)) {
	for _, c := range d.Chains {
		for h := int64(1); h <= c.Events.Height(); h++ {
			if be := c.Events.At(h); be != nil {
				for _, te := range be.Txs {
					for _, p := range te.Sends {
						fn(c, p)
					}
				}
			}
		}
	}
}
