package topo

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"ibcbench/internal/obs"
)

// asyncBeginIDs collects the async trace IDs opened on the named track.
// Interning is idempotent, so Track resolves the name to the ID the run
// recorded under.
func asyncBeginIDs(tr *obs.Tracer, track string) map[uint64]bool {
	id := tr.Track(track)
	out := map[uint64]bool{}
	tr.Events(func(ev obs.Event) {
		if ev.Phase == obs.PhaseAsyncBegin && ev.Track == id {
			out[ev.ID] = true
		}
	})
	return out
}

// TestForwardedRouteSharedTraceID pins cross-chain span parenting: a
// forwarded A->B->C route's middleware-emitted hop-2 packets must join
// the origin packet's async trace (same ID, emitted on the middle
// chain's track) instead of opening traces of their own.
func TestForwardedRouteSharedTraceID(t *testing.T) {
	const transfers = 2
	o := obs.New()
	sc := Scenario{
		Name:     "line3-forward-trace",
		Topology: Line(3),
		Deploy:   DeployConfig{Obs: o},
		Routes: []Route{{
			Path: []int{0, 1, 2}, Transfers: transfers, Forwarded: true,
		}},
		Until: 15 * time.Minute,
	}
	res, _, err := sc.RunDeployed(11)
	if err != nil {
		t.Fatal(err)
	}
	if res.RoutesCompleted != 1 {
		t.Fatalf("route did not complete: %+v", res.Routes)
	}
	origin := asyncBeginIDs(o.Tracer, "chain/"+sc.Topology.ChainID(0))
	mid := asyncBeginIDs(o.Tracer, "chain/"+sc.Topology.ChainID(1))
	if len(origin) != transfers {
		t.Fatalf("origin chain opened %d traces, want %d", len(origin), transfers)
	}
	if len(mid) != transfers {
		t.Fatalf("middle chain opened %d traces, want %d", len(mid), transfers)
	}
	for id := range mid {
		if !origin[id] {
			t.Fatalf("hop-2 trace id %#x not among origin ids %v", id, origin)
		}
	}
}

// TestForwardedTimeoutUnwindLinksOrigin pins parenting through the
// refund path: when the last hop times out and unwinds, the hop packets'
// spans still link back to the origin trace ID — the unwound lifecycle
// reads as one trace from user transfer to refund.
func TestForwardedTimeoutUnwindLinksOrigin(t *testing.T) {
	const transfers = 2
	o := obs.New()
	sc := Scenario{
		Name:     "line3-forward-timeout-trace",
		Topology: Line(3),
		Deploy:   DeployConfig{Obs: o},
		Routes: []Route{{
			Path: []int{0, 1, 2}, Transfers: transfers,
			Forwarded: true, TimeoutBlocks: 1,
		}},
		Until: 20 * time.Minute,
	}
	res, _, err := sc.RunDeployed(7)
	if err != nil {
		t.Fatal(err)
	}
	if res.RoutesCompleted != 1 {
		t.Fatal("unwound route never settled on the origin")
	}
	origin := asyncBeginIDs(o.Tracer, "chain/"+sc.Topology.ChainID(0))
	mid := asyncBeginIDs(o.Tracer, "chain/"+sc.Topology.ChainID(1))
	if len(origin) != transfers {
		t.Fatalf("origin chain opened %d traces, want %d", len(origin), transfers)
	}
	if len(mid) == 0 {
		t.Fatal("timed-out hop packets recorded no spans")
	}
	for id := range mid {
		if !origin[id] {
			t.Fatalf("unwound hop trace id %#x not linked to origin ids %v", id, origin)
		}
	}
}

// traceScenario is a small instrumented hub run shared by the
// determinism and result-identity tests.
func traceScenario(o *obs.Obs) Scenario {
	return Scenario{
		Name:     "hub3-trace",
		Topology: Hub(3),
		Deploy:   DeployConfig{Obs: o},
		Rate:     3,
		Windows:  2,
		Routes:   []Route{{Path: []int{1, 0, 2}, Transfers: 2, Forwarded: true}},
	}
}

// TestTraceDeterminism pins the tentpole's contract: two same-seed runs
// produce byte-identical Chrome trace documents and byte-identical
// registry snapshots.
func TestTraceDeterminism(t *testing.T) {
	run := func() ([]byte, []byte) {
		o := obs.New()
		res, _, err := traceScenario(o).RunDeployed(23)
		if err != nil {
			t.Fatal(err)
		}
		var trace bytes.Buffer
		if err := o.Tracer.WriteChrome(&trace); err != nil {
			t.Fatal(err)
		}
		snap, err := json.Marshal(res.Metrics)
		if err != nil {
			t.Fatal(err)
		}
		return trace.Bytes(), snap
	}
	t1, s1 := run()
	t2, s2 := run()
	if !bytes.Equal(t1, t2) {
		t.Fatalf("same-seed traces differ (%d vs %d bytes)", len(t1), len(t2))
	}
	if !bytes.Equal(s1, s2) {
		t.Fatalf("same-seed snapshots differ:\n%s\n%s", s1, s2)
	}
	if len(t1) == 0 || string(s1) == "null" {
		t.Fatal("instrumented run produced no trace/snapshot")
	}
}

// TestObservedRunResultUnchanged pins that attaching the tracer does not
// perturb the simulation: an instrumented run's Result is identical to
// the uninstrumented run's, modulo the Metrics snapshot field.
func TestObservedRunResultUnchanged(t *testing.T) {
	o := obs.New()
	observed, _, err := traceScenario(o).RunDeployed(23)
	if err != nil {
		t.Fatal(err)
	}
	plain := traceScenario(nil)
	plain.Deploy.Obs = nil
	bare, _, err := plain.RunDeployed(23)
	if err != nil {
		t.Fatal(err)
	}
	if observed.Metrics == nil {
		t.Fatal("instrumented run carries no snapshot")
	}
	if bare.Metrics != nil {
		t.Fatal("uninstrumented run grew a snapshot")
	}
	observed.Metrics = nil
	got, err := json.Marshal(observed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(bare)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("instrumentation changed the run result:\n%s\n%s", got, want)
	}
	// The disabled path also keeps persisted JSON shape stable: no
	// Metrics key at all.
	if bytes.Contains(want, []byte(`"Metrics"`)) {
		t.Fatal("uninstrumented result serializes a Metrics field")
	}
}

// TestFoldedCounters spot-checks the registry fold: chain heights,
// relayer work and simulator totals all land in the snapshot.
func TestFoldedCounters(t *testing.T) {
	o := obs.New()
	res, _, err := traceScenario(o).RunDeployed(29)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]uint64{}
	for _, c := range res.Metrics.Counters {
		byName[c.Name] = c.Value
	}
	if byName["chain/hub/height"] == 0 {
		t.Fatalf("hub height counter missing: %v", byName)
	}
	if byName["sim/events_processed"] == 0 {
		t.Fatal("sim/events_processed not folded")
	}
	if byName["net/sent"] == 0 {
		t.Fatal("net/sent not folded")
	}
	var relayed uint64
	for name, v := range byName {
		if len(name) > 8 && name[:8] == "relayer/" {
			relayed += v
		}
	}
	if relayed == 0 {
		t.Fatal("no relayer counters folded")
	}
}
