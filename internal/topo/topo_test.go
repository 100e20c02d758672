package topo

import (
	"strings"
	"testing"
	"time"

	"ibcbench/internal/metrics"
)

func TestPresetShapes(t *testing.T) {
	cases := []struct {
		name          string
		topo          Topology
		chains, edges int
	}{
		{"two", TwoChain(), 2, 1},
		{"line4", Line(4), 4, 3},
		{"hub4", Hub(4), 5, 4},
		{"mesh4", Mesh(4), 4, 6},
	}
	for _, c := range cases {
		if len(c.topo.Chains) != c.chains || len(c.topo.Edges) != c.edges {
			t.Fatalf("%s: %d chains / %d edges, want %d / %d",
				c.name, len(c.topo.Chains), len(c.topo.Edges), c.chains, c.edges)
		}
	}
}

func TestParseSpec(t *testing.T) {
	for spec, want := range map[string]string{
		"two":    "two",
		"line:3": "line:3",
		"hub:4":  "hub:4",
		"mesh:3": "mesh:3",
	} {
		tp, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if tp.Name != want {
			t.Fatalf("%s parsed as %s", spec, tp.Name)
		}
	}
	for _, spec := range []string{"", "ring:4", "hub", "line:1", "mesh:x", "mesh:257", "hub:99999999"} {
		if _, err := ParseSpec(spec); err == nil {
			t.Fatalf("spec %q accepted", spec)
		}
	}
}

func TestRouteBFS(t *testing.T) {
	hub := Hub(3) // 0=hub, spokes 1..3
	path, err := hub.Route(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 3 || path[0] != 1 || path[1] != 0 || path[2] != 3 {
		t.Fatalf("spoke-to-spoke route = %v, want [1 0 3]", path)
	}
	line := Line(4)
	path, err = line.Route(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 4 {
		t.Fatalf("line route = %v", path)
	}
	disconnected := Topology{
		Chains: []ChainSpec{{}, {}, {}},
		Edges:  []EdgeSpec{{A: 0, B: 1}},
	}
	if _, err := disconnected.Route(0, 2); err == nil {
		t.Fatal("route across disconnected graph accepted")
	}
}

// TestPresetsCompleteTransfers deploys every preset and completes a small
// transfer batch end-to-end on each edge.
func TestPresetsCompleteTransfers(t *testing.T) {
	presets := []Topology{TwoChain(), Line(3), Hub(2), Mesh(3)}
	for _, tp := range presets {
		tp := tp
		t.Run(tp.Name, func(t *testing.T) {
			d, err := Deploy(tp, DeployConfig{Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			per := 5
			for _, l := range d.Links {
				gen := l.Forward()
				gen.SubmitBatch(per)
			}
			d.Start()
			if err := d.Run(4 * time.Minute); err != nil {
				t.Fatal(err)
			}
			for _, l := range d.Links {
				got := l.Tracker.CompletionCounts()[metrics.StatusCompleted]
				if got != per {
					t.Fatalf("edge %d (%s~%s): completed %d of %d",
						l.Index, l.Pair.A.ID, l.Pair.B.ID, got, per)
				}
			}
		})
	}
}

// TestHubEdgeIsolation checks that per-edge relayers on a shared hub
// chain only relay their own channel's packets.
func TestHubEdgeIsolation(t *testing.T) {
	d, err := Deploy(Hub(2), DeployConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Submit only on edge 0 (hub -> spoke 1).
	d.Links[0].Forward().SubmitBatch(8)
	d.Start()
	if err := d.Run(3 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := d.Links[0].Tracker.CompletionCounts()[metrics.StatusCompleted]; got != 8 {
		t.Fatalf("edge 0 completed %d of 8", got)
	}
	if n := trackedPackets(d.Links[1].Tracker); n != 0 {
		t.Fatalf("edge 1 tracker saw %d packets, want 0", n)
	}
	st := d.Links[1].Relayers[0].Stats()
	if st.RecvDelivered != 0 || st.TxsSubmitted != 0 {
		t.Fatalf("edge 1 relayer did foreign work: %+v", st)
	}
}

// TestMultiHopScenario runs a 3-chain line with a 2-leg route and checks
// sequential leg execution with per-edge metrics.
func TestMultiHopScenario(t *testing.T) {
	sc := Scenario{
		Name:     "line3-multihop",
		Topology: Line(3),
		Routes:   []Route{{Path: []int{0, 1, 2}, Transfers: 4}},
	}
	res, _, err := sc.RunDeployed(21)
	if err != nil {
		t.Fatal(err)
	}
	if res.RoutesCompleted != 1 {
		t.Fatalf("route did not complete: %+v", res)
	}
	for i, e := range res.Edges {
		if e.Completion[metrics.StatusCompleted] != 4 {
			t.Fatalf("edge %d completed %d of 4 (%+v)", i, e.Completion[metrics.StatusCompleted], e)
		}
	}
	if res.Total[metrics.StatusCompleted] != 8 {
		t.Fatalf("aggregate completed = %d, want 8 (4 per edge)", res.Total[metrics.StatusCompleted])
	}
	// Sequential legs: edge 1's transfers broadcast only after edge 0's
	// leg completed, so its first broadcast must follow edge 0's last ack.
	// Leg ordering shows up in the per-edge trackers' step spans.
	_, leg0End, ok0 := resTrackerSpan(t, sc, 21, 0)
	leg1Start, _, ok1 := resTrackerSpan(t, sc, 21, 1)
	if ok0 && ok1 && leg1Start <= leg0End-30*time.Second {
		t.Fatalf("leg 2 started (%v) long before leg 1 finished (%v)", leg1Start, leg0End)
	}
}

// resTrackerSpan re-runs the scenario's deployment to read step spans per
// edge (Result does not expose raw trackers).
func resTrackerSpan(t *testing.T, sc Scenario, seed int64, edge int) (time.Duration, time.Duration, bool) {
	t.Helper()
	d, err := Deploy(sc.Topology, DeployConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rr := &routeRun{route: sc.Routes[0]}
	d.Sched.At(time.Millisecond, func() { d.startLeg(rr) })
	d.Start()
	if err := d.Run(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if edge == 0 {
		first, last, ok := d.Links[0].Tracker.StepSpan(metrics.StepAckConfirmation)
		return first, last, ok
	}
	first, last, ok := d.Links[edge].Tracker.StepSpan(metrics.StepTransferBroadcast)
	return first, last, ok
}

// TestRouteNotAdvancedByBackgroundTraffic pins the leg-gating semantics:
// a route sharing its first edge with constant-rate traffic must wait for
// its OWN transfers to complete before submitting the next leg —
// background completions crossing the edge tracker must not count.
func TestRouteNotAdvancedByBackgroundTraffic(t *testing.T) {
	d, err := Deploy(Line(3), DeployConfig{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	d.Links[0].Forward().RunConstantRate(10, 6) // heavy traffic on edge 0
	rr := &routeRun{route: Route{Path: []int{0, 1, 2}, Transfers: 5}}
	d.Sched.At(time.Millisecond, func() { d.startLeg(rr) })
	d.Start()
	if err := d.Run(15 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if !rr.done {
		t.Fatal("route did not complete")
	}
	// The first leg's own last acknowledgement on edge 0...
	var legDone time.Duration
	for _, key := range d.Links[0].legGens[0].PacketKeys() {
		at, ok := d.Links[0].Tracker.StepTime(key, metrics.StepAckConfirmation)
		if !ok {
			t.Fatalf("leg packet %+v never acked", key)
		}
		if at > legDone {
			legDone = at
		}
	}
	// ...must precede the second leg's first broadcast on edge 1 (the
	// route is edge 1's only traffic).
	legNext, _, ok := d.Links[1].Tracker.StepSpan(metrics.StepTransferBroadcast)
	if !ok {
		t.Fatal("second leg never broadcast")
	}
	if legNext < legDone {
		t.Fatalf("leg 2 broadcast at %v before leg 1's own transfers finished at %v",
			legNext, legDone)
	}
}

// TestForwardedRouteFasterThanSequential is the acceptance pin for the
// packet-forward middleware: the same 3-chain line route run in both
// modes from one scenario each. Forwarded mode must (a) complete with a
// single user-initiated transfer batch per route — the middleware emits
// hop 2 —, (b) mint the correct nested trace denom on the final chain,
// and (c) deliver strictly lower end-to-end route latency than
// sequential legs.
func TestForwardedRouteFasterThanSequential(t *testing.T) {
	const transfers = 3
	run := func(forwarded bool) (*Result, *Deployment) {
		d, err := Deploy(Line(3), DeployConfig{Seed: 33})
		if err != nil {
			t.Fatal(err)
		}
		rr := &routeRun{route: Route{Path: []int{0, 1, 2}, Transfers: transfers, Forwarded: forwarded}}
		if forwarded {
			d.Sched.At(time.Millisecond, func() { d.startForwardedRoute(rr) })
		} else {
			d.Sched.At(time.Millisecond, func() { d.startLeg(rr) })
		}
		d.Start()
		if err := d.Run(15 * time.Minute); err != nil {
			t.Fatal(err)
		}
		if !rr.done {
			t.Fatalf("route (forwarded=%v) did not complete", forwarded)
		}
		res := &Result{}
		res.Routes = append(res.Routes, d.routeReport(rr))
		return res, d
	}

	seqRes, _ := run(false)
	fwdRes, fwdDep := run(true)

	// (a) one user transfer per route: edge 1 saw no workload submission
	// in forwarded mode — its packets were middleware-emitted.
	if got := fwdDep.Links[1].legGens; len(got) != 0 {
		t.Fatalf("forwarded mode created %d generators on edge 1", len(got))
	}
	if n := trackedPackets(fwdDep.Links[1].Tracker); n != transfers {
		t.Fatalf("edge 1 tracked %d middleware packets, want %d", n, transfers)
	}
	if fs := fwdDep.Chains[1].Forward.Stats(); fs.Forwarded != transfers || fs.Completed != transfers {
		t.Fatalf("middleware stats = %+v", fs)
	}

	// (b) nested trace denom on the final chain, held by the route receiver.
	nested := "transfer/channel-0/transfer/channel-0/uatom"
	if got := fwdDep.Chains[2].App.Bank().Balance(RouteReceiver(0), nested); got != transfers {
		t.Fatalf("final-chain nested voucher = %d, want %d", got, transfers)
	}
	if got := fwdDep.Chains[2].App.Bank().Supply(nested); got != transfers {
		t.Fatalf("final-chain nested supply = %d", got)
	}

	// (c) strictly lower end-to-end latency.
	seqLat := seqRes.Routes[0].Latency
	fwdLat := fwdRes.Routes[0].Latency
	if fwdLat <= 0 || seqLat <= 0 {
		t.Fatalf("latencies not recorded: seq=%v fwd=%v", seqLat, fwdLat)
	}
	if fwdLat >= seqLat {
		t.Fatalf("forwarded route (%v) not faster than sequential (%v)", fwdLat, seqLat)
	}

	// Hop series exist for both hops in both modes.
	for _, res := range []*Result{seqRes, fwdRes} {
		rt := res.Routes[0]
		if len(rt.Hops) != 2 {
			t.Fatalf("route has %d hop series (forwarded=%v)", len(rt.Hops), rt.Forwarded)
		}
		for i, h := range rt.Hops {
			if h.Len() != transfers {
				t.Fatalf("hop %d series has %d samples (forwarded=%v)", i, h.Len(), rt.Forwarded)
			}
		}
		// Hops arrive in order.
		if rt.Hops[0].Max() >= rt.Hops[1].Max() {
			t.Fatalf("hop 2 (%v) not after hop 1 (%v)", rt.Hops[1].Max(), rt.Hops[0].Max())
		}
	}
}

// TestForwardedTimeoutUnwindEndToEnd injects a last-hop timeout through
// the full relayer stack: the hop's timeout margin is so tight the recv
// on the final chain always arrives late, the relayer proves the timeout
// back on the middle chain, and the origin sender ends up refunded with
// intermediate escrows and supplies restored.
func TestForwardedTimeoutUnwindEndToEnd(t *testing.T) {
	const transfers = 2
	sc := Scenario{
		Name:     "line3-forward-timeout",
		Topology: Line(3),
		Routes: []Route{{
			Path: []int{0, 1, 2}, Transfers: transfers,
			Forwarded: true, TimeoutBlocks: 1,
		}},
		Until: 20 * time.Minute,
	}
	d, err := Deploy(sc.Topology, DeployConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rr := &routeRun{route: sc.Routes[0]}
	d.Sched.At(time.Millisecond, func() { d.startForwardedRoute(rr) })
	d.Start()
	if err := d.Run(sc.Until); err != nil {
		t.Fatal(err)
	}
	// The route's packet lifecycles completed — with an error ack.
	if !rr.done {
		t.Fatal("unwound route never settled on the origin")
	}
	mw := d.Chains[1].Forward.Stats()
	if mw.Forwarded != transfers || mw.Unwound != transfers || mw.Completed != 0 {
		t.Fatalf("middleware stats = %+v", mw)
	}
	// Origin: senders refunded in full, escrow empty.
	bankA := d.Chains[0].App.Bank()
	if got := bankA.Balance("escrow/transfer/channel-0", "uatom"); got != 0 {
		t.Fatalf("origin escrow holds %d after unwind", got)
	}
	// Middle chain: voucher supply and escrows restored to zero.
	bankB := d.Chains[1].App.Bank()
	voucher := "transfer/channel-0/uatom"
	if got := bankB.Supply(voucher); got != 0 {
		t.Fatalf("middle-chain voucher supply = %d after unwind", got)
	}
	if got := bankB.Balance("escrow/transfer/channel-1", voucher); got != 0 {
		t.Fatalf("middle-chain escrow holds %d after unwind", got)
	}
	// Final chain: nothing was ever minted.
	if got := d.Chains[2].App.Bank().Supply("transfer/channel-0/" + voucher); got != 0 {
		t.Fatalf("final chain minted %d despite timeout", got)
	}
}

// TestReverseDirection exercises a route that traverses an edge against
// its A->B orientation (hub topologies: spoke -> hub).
func TestReverseDirection(t *testing.T) {
	sc := Scenario{
		Name:     "hub2-spoke-to-spoke",
		Topology: Hub(2),
		// Edges are hub->spoke; spoke1 -> hub -> spoke2 crosses edge 0 in
		// reverse.
		Routes: []Route{{Path: []int{1, 0, 2}, Transfers: 3}},
	}
	res, _, err := sc.RunDeployed(9)
	if err != nil {
		t.Fatal(err)
	}
	if res.RoutesCompleted != 1 {
		t.Fatalf("spoke-to-spoke route incomplete: total=%v", res.Total)
	}
	if res.Total[metrics.StatusCompleted] != 6 {
		t.Fatalf("completed = %d, want 6", res.Total[metrics.StatusCompleted])
	}
}

func TestScenarioRate(t *testing.T) {
	sc := Scenario{
		Name:     "hub2-rates",
		Topology: Hub(2),
		Rate:     4,
		Windows:  4,
	}
	res, _, err := sc.RunDeployed(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Edges {
		if e.Completion[metrics.StatusCompleted] == 0 {
			t.Fatalf("edge %d completed nothing: %+v", e.Edge, e)
		}
		if e.Workload.Requested != 4*4*5 {
			t.Fatalf("edge %d requested %d, want 80", e.Edge, e.Workload.Requested)
		}
	}
	if res.Throughput <= 0 {
		t.Fatalf("aggregate throughput = %f", res.Throughput)
	}
	var sb strings.Builder
	res.Render(&sb)
	for _, want := range []string{"scenario hub2-rates", "hub~ibc-1", "total:"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("render missing %q:\n%s", want, sb.String())
		}
	}
}

// TestDeterminism: identical seeds give identical results.
func TestDeterminism(t *testing.T) {
	run := func() string {
		sc := Scenario{
			Name:     "hub2",
			Topology: Hub(2),
			Rate:     2,
			Windows:  3,
		}
		res, _, err := sc.RunDeployed(77)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		res.Render(&sb)
		return sb.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different results:\n%s\nvs\n%s", a, b)
	}
}

// trackedPackets counts the packets with any recorded step.
func trackedPackets(tr *metrics.Tracker) int {
	n := 0
	tr.Walk(func(metrics.PacketKey, *metrics.Lifecycle) { n++ })
	return n
}
