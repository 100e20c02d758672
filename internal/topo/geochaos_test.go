package topo

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"ibcbench/internal/chaos"
	"ibcbench/internal/geo"
	"ibcbench/internal/metrics"
	"ibcbench/internal/netem"
)

// flatWAN is the paper's WAN without jitter: a message arrives exactly
// one base latency after it is sent, so oneWay measures a pair's
// installed latency by delivery.
var flatWAN = netem.Config{OneWayLatency: 100 * time.Millisecond, LoopbackLatency: 200 * time.Microsecond}

// oneWay sends a message from one host to another and reports how long
// it took to arrive. It runs the deployment for a virtual second.
func oneWay(d *Deployment, from, to netem.Host) time.Duration {
	start := d.Sched.Now()
	var at time.Duration
	d.Net.Send(from, to, func() { at = d.Sched.Now() })
	d.Sched.RunUntil(start + time.Second)
	return at - start
}

// TestGeoDeploymentHeterogeneousPaths pins the region model end to end:
// chains placed round-robin into the regions of an asymmetric matrix see
// the matrix latencies host-pair by host-pair (validators, relayer
// machines, relayer full nodes and workload drivers included),
// intra-region pairs see the LAN path, and transfers still complete over
// the heterogeneous network.
func TestGeoDeploymentHeterogeneousPaths(t *testing.T) {
	d, err := Deploy(TwoChain(), DeployConfig{Seed: 5, Network: flatWAN, Geo: geo.ThreeRegionWAN()})
	if err != nil {
		t.Fatal(err)
	}
	h0 := d.Chains[0].Hosts() // eu-west
	h1 := d.Chains[1].Hosts() // us-east
	// Cross-region paths carry the asymmetric matrix values.
	if got := oneWay(d, h0[0], h1[0]); got != 40*time.Millisecond {
		t.Fatalf("eu->us latency %v, want 40ms", got)
	}
	if got := oneWay(d, h1[0], h0[0]); got != 45*time.Millisecond {
		t.Fatalf("us->eu latency %v, want 45ms", got)
	}
	// Intra-region pairs (two validators of one chain) are LAN-like.
	if got := oneWay(d, h0[0], h0[1]); got != 200*time.Microsecond {
		t.Fatalf("intra-region latency %v, want 200µs", got)
	}
	// The relayer machine sits on side A (eu-west): local to chain 0's
	// full nodes, a WAN hop from chain 1.
	rh := d.Links[0].Relayers[0].Host()
	if got := oneWay(d, rh, h0[len(h0)-1]); got != 200*time.Microsecond {
		t.Fatalf("relayer->local fullnode latency %v", got)
	}
	if got := oneWay(d, rh, h1[0]); got != 40*time.Millisecond {
		t.Fatalf("relayer->remote chain latency %v", got)
	}
	// Workload drivers land in the source chain's region.
	gen := d.Links[0].Forward()
	if got := oneWay(d, gen.Host(), h0[0]); got != 200*time.Microsecond {
		t.Fatalf("workload->source latency %v", got)
	}
	// The heterogeneous network still completes transfers end to end.
	gen.SubmitBatch(4)
	d.Start()
	if err := d.Run(3 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := d.Links[0].Tracker.CompletionCounts()[metrics.StatusCompleted]; got != 4 {
		t.Fatalf("completed %d of 4 under geo model", got)
	}
}

// TestGeoRoundRobinAndValidation covers round-robin placement, validated
// against the installed latencies: chain i's hosts see the table row of
// region i.
func TestGeoRoundRobinAndValidation(t *testing.T) {
	m := geo.ThreeRegionWAN()
	d, err := Deploy(Hub(2), DeployConfig{Seed: 1, Network: flatWAN, Geo: m})
	if err != nil {
		t.Fatal(err)
	}
	// Chains 0, 1, 2 land in eu-west, us-east, ap-south.
	for i := range m.Regions {
		if r := m.RegionAt(i); r != m.Regions[i] {
			t.Fatalf("chain %d placed in %s, want %s", i, r, m.Regions[i])
		}
		for j := range m.Regions {
			if i == j {
				continue
			}
			if got, want := oneWay(d, d.Chains[i].Hosts()[0], d.Chains[j].Hosts()[0]), m.OneWay[i][j]; got != want {
				t.Fatalf("chain %d -> chain %d latency %v, want %v (%s -> %s)", i, j, got, want, m.Regions[i], m.Regions[j])
			}
		}
	}
}

// TestPartitionTimeoutRefund is the regression test for the silent-drop
// bug: packets in flight while the relayer is partitioned off must
// surface as relayer timeouts with sender refunds once the partition
// heals — not hang forever because the dropped event frames were never
// re-scanned. The workload commits on the source chain during a
// whole-link blackout; the timeout height passes mid-partition; after
// the heal the relayer's gap-driven clearing rebuilds the backlog and
// proves the timeouts.
func TestPartitionTimeoutRefund(t *testing.T) {
	const transfers = 5
	d, err := Deploy(TwoChain(), DeployConfig{Seed: 11, ClearIntervalBlocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	gen := d.Links[0].Forward()
	gen.TimeoutBlocks = 8 // expires on the destination mid-partition
	tl := chaos.Timeline{Events: []chaos.Event{
		{At: time.Millisecond, Kind: chaos.PartitionLink, Edge: 0, Relayer: -1},
		{At: 150 * time.Second, Kind: chaos.HealLink, Edge: 0, Relayer: -1},
	}}
	chaos.Inject(d.Sched, d, tl)
	d.Sched.At(time.Second, func() { gen.SubmitBatch(transfers) })
	d.Start()
	if err := d.Run(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	st := d.Links[0].Relayers[0].Stats()
	if st.TimeoutsDelivered != transfers {
		t.Fatalf("timeouts delivered = %d, want %d (stats %+v)", st.TimeoutsDelivered, transfers, st)
	}
	// Every packet's lifecycle settled (timeout completes it on source).
	if got := d.Links[0].Tracker.CompletionCounts()[metrics.StatusCompleted]; got != transfers {
		t.Fatalf("completed %d of %d after partition heal", got, transfers)
	}
	// Senders refunded in full: escrow empty, no vouchers ever minted.
	bankA := d.Chains[0].App.Bank()
	if got := bankA.Balance("escrow/transfer/channel-0", "uatom"); got != 0 {
		t.Fatalf("source escrow still holds %d", got)
	}
	if got := bankA.Balance("user-e0f-0000", "uatom"); got != 1<<50 {
		t.Fatalf("sender balance %d not refunded to %d", got, int64(1)<<50)
	}
	if got := d.Chains[1].App.Bank().Supply("transfer/channel-0/uatom"); got != 0 {
		t.Fatalf("destination minted %d vouchers despite timeout", got)
	}
}

// failoverRun drives one hub deployment with standbys, optionally
// blacking out edge 0's primary relayer host for the whole active phase.
func failoverRun(t *testing.T, fault bool) (*Deployment, map[metrics.Status]int) {
	t.Helper()
	d, err := Deploy(Hub(2), DeployConfig{Seed: 7, Standby: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range d.Links {
		l.Forward().RunConstantRate(2, 3)
	}
	if fault {
		tl := chaos.Timeline{Events: []chaos.Event{
			{At: 12 * time.Second, Kind: chaos.PartitionLink, Edge: 0, Relayer: 0},
			{At: 4 * time.Minute, Kind: chaos.HealLink, Edge: 0, Relayer: 0},
		}}
		chaos.Inject(d.Sched, d, tl)
	}
	d.Start()
	if err := d.Run(6 * time.Minute); err != nil {
		t.Fatal(err)
	}
	total := metrics.MergeCounts(
		d.Links[0].Tracker.CompletionCounts(),
		d.Links[1].Tracker.CompletionCounts(),
	)
	return d, total
}

// TestFailoverStandbyTakeover is the acceptance pin: a hub scenario with
// a partitioned primary relayer completes all transfers via the standby,
// with measured per-edge downtime > 0 and final supplies identical to
// the fault-free run.
func TestFailoverStandbyTakeover(t *testing.T) {
	const perEdge = 2 * 5 * 3 // rate 2 rps x 5 s windows x 3 windows
	faultDep, faultTotal := failoverRun(t, true)
	baseDep, baseTotal := failoverRun(t, false)

	if got := faultTotal[metrics.StatusCompleted]; got != 2*perEdge {
		t.Fatalf("faulted run completed %d of %d", got, 2*perEdge)
	}
	if got := baseTotal[metrics.StatusCompleted]; got != 2*perEdge {
		t.Fatalf("baseline run completed %d of %d", got, 2*perEdge)
	}

	// The standby detected the outage and did real relay work.
	rep := faultDep.Links[0].Failover.Report()
	if rep.Takeovers != 1 {
		t.Fatalf("takeovers = %d, want 1", rep.Takeovers)
	}
	if rep.Downtime.Sum() <= 0 {
		t.Fatalf("measured downtime = %v, want > 0", rep.Downtime.Sum())
	}
	if rep.Standby.RecvDelivered == 0 {
		t.Fatal("standby delivered no packets")
	}
	// The untouched edge never activated its standby.
	if other := faultDep.Links[1].Failover.Report(); other.Takeovers != 0 {
		t.Fatalf("edge 1 standby activated %d times", other.Takeovers)
	}
	if base := baseDep.Links[0].Failover.Report(); base.Takeovers != 0 || base.Downtime.Sum() != 0 {
		t.Fatalf("fault-free run recorded failover %+v", base)
	}

	// Final supplies identical to the fault-free run on every chain.
	for i := 1; i <= 2; i++ {
		voucher := "transfer/channel-0/uatom"
		got := faultDep.Chains[i].App.Bank().Supply(voucher)
		want := baseDep.Chains[i].App.Bank().Supply(voucher)
		if got != want || got != perEdge {
			t.Fatalf("spoke %d voucher supply %d, baseline %d, want %d", i, got, want, perEdge)
		}
	}
	for ch := 0; ch <= 1; ch++ {
		escrow := "escrow/transfer/channel-" + string(rune('0'+ch))
		got := faultDep.Chains[0].App.Bank().Balance(escrow, "uatom")
		want := baseDep.Chains[0].App.Bank().Balance(escrow, "uatom")
		if got != want || got != perEdge {
			t.Fatalf("hub %s holds %d, baseline %d, want %d", escrow, got, want, perEdge)
		}
	}
}

// TestChaosScenarioDeterminism pins the acceptance requirement that the
// same seed and chaos timeline reproduce byte-identical results —
// rendered report and serialized JSON alike — on a supervised scenario
// mixing partitions, spikes and relayer crashes.
func TestChaosScenarioDeterminism(t *testing.T) {
	run := func() (string, []byte) {
		sc := Scenario{
			Name:         "chaos-det",
			Topology:     Hub(2),
			Deploy:       DeployConfig{Standby: true},
			Rate:         2,
			Windows:      3,
			RecordCurves: true,
			Chaos: chaos.Timeline{Events: []chaos.Event{
				{At: 12 * time.Second, Kind: chaos.PartitionLink, Edge: 0, Relayer: 0},
				{At: 20 * time.Second, Kind: chaos.LatencySpike, Edge: 1, ExtraLatency: 80 * time.Millisecond},
				{At: 60 * time.Second, Kind: chaos.HealLink, Edge: 0, Relayer: 0},
				{At: 70 * time.Second, Kind: chaos.LatencySpike, Edge: 1},
				{At: 75 * time.Second, Kind: chaos.RelayerPause, Edge: 1, Relayer: 0},
				{At: 95 * time.Second, Kind: chaos.RelayerResume, Edge: 1, Relayer: 0},
			}},
		}
		res, _, err := sc.RunDeployed(77)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Faults) != 6 {
			t.Fatalf("fault log has %d entries, want 6", len(res.Faults))
		}
		var sb strings.Builder
		res.Render(&sb)
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return sb.String(), raw
	}
	text1, json1 := run()
	text2, json2 := run()
	if text1 != text2 {
		t.Fatalf("same seed+timeline, different rendered results:\n%s\nvs\n%s", text1, text2)
	}
	if string(json1) != string(json2) {
		t.Fatal("same seed+timeline, different serialized results")
	}
	for _, want := range []string{"fault @12s", "latency spike", "pause relayer", "failover"} {
		if !strings.Contains(text1, want) {
			t.Fatalf("rendered result missing %q:\n%s", want, text1)
		}
	}
}
