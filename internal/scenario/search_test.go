package scenario

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"
)

func plantedSpec(t *testing.T) Spec {
	t.Helper()
	data, err := os.ReadFile("testdata/planted.json")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSearchFindsPlantedViolation: the planted fixture's fault space
// only generates unhealed partitions, so a bounded search must find
// permanently-stuck packets and shrink the timeline to a single event
// that still reproduces.
func TestSearchFindsPlantedViolation(t *testing.T) {
	s := plantedSpec(t)
	res, err := Search(s, SearchOptions{Budget: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ce := res.Counterexample
	if ce == nil {
		t.Fatalf("search found no violation in %d candidates", res.Examined)
	}
	if len(ce.MinimalViolations) == 0 {
		t.Fatal("minimal timeline reported no violations")
	}
	if len(ce.Minimal.Chaos) != 1 {
		t.Errorf("shrink left %d events, want 1: %+v", len(ce.Minimal.Chaos), ce.Minimal.Chaos)
	}
	if ce.Minimal.Faults != nil {
		t.Error("minimal spec still declares a fault space")
	}
	if ce.Minimal.Seed == 0 {
		t.Error("minimal spec did not pin its run seed")
	}

	// The committable counterexample replays: encode, re-parse, run.
	enc, err := Encode(ce.Minimal)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := Parse(enc)
	if err != nil {
		t.Fatalf("minimal spec does not re-parse: %v", err)
	}
	rep, err := Run(replayed, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed() {
		t.Fatal("replayed minimal spec no longer violates")
	}
}

// TestSearchDeterminism: same spec + same options => byte-identical
// search results, counterexample spec included (the property that makes
// counterexamples committable regression tests).
func TestSearchDeterminism(t *testing.T) {
	s := plantedSpec(t)
	opt := SearchOptions{Budget: 4, Seed: 9}
	a, err := Search(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Search(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("same-seed searches diverged:\n%s\n%s", aj, bj)
	}
	if a.Counterexample != nil {
		ea, _ := Encode(a.Counterexample.Minimal)
		eb, _ := Encode(b.Counterexample.Minimal)
		if string(ea) != string(eb) {
			t.Fatalf("counterexample specs diverged:\n%s\n%s", ea, eb)
		}
	}
}

// TestSearchNeedsFaultSpace: specs without a declared space refuse to
// search instead of guessing one.
func TestSearchNeedsFaultSpace(t *testing.T) {
	if _, err := Search(quickstartSpec(), SearchOptions{Budget: 1}); err == nil {
		t.Fatal("search without a fault space succeeded")
	}
}

// TestShrinkKeepsHealedFaultsHealed: the failover built-in's first
// counterexamples at generator seeds 1–3 are healed partitions. Removing
// only a heal once shrank each of them to a partition left open, which
// strands packets the original timeline did not. Shrinking must remove a
// fault with its recovery, leave open only faults the original left
// open, and end on a verdict of an assertion that failed on the same
// chain originally.
func TestShrinkKeepsHealedFaultsHealed(t *testing.T) {
	spec := failoverSpec()
	openFaults := func(events []EventSpec) (open []EventSpec) {
		for _, u := range faultUnits(events) {
			if len(u) == 1 {
				open = append(open, events[u[0]])
			}
		}
		return open
	}
	for seed := int64(1); seed <= 3; seed++ {
		res, err := Search(spec, SearchOptions{Budget: 32, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ce := res.Counterexample
		if ce == nil {
			t.Fatalf("generator seed %d: no counterexample to shrink", seed)
		}
		was := openFaults(ce.Events)
		for _, ev := range openFaults(ce.Minimal.Chaos) {
			if !slices.ContainsFunc(was, func(o EventSpec) bool { return reflect.DeepEqual(o, ev) }) {
				t.Errorf("generator seed %d: shrinking left %+v open, which the original healed", seed, ev)
			}
		}
		if !stillFails(ce.Violations, ce.MinimalViolations) {
			t.Errorf("generator seed %d: minimal verdicts %v share no assertion and chain with %v", seed, ce.MinimalViolations, ce.Violations)
		}
	}
}

// TestFaultUnitsPairRecoveries: each recovery joins the oldest fault of
// its target still open at its time, in time order whatever the list
// order, and a recovery with nothing open joins no unit.
func TestFaultUnitsPairRecoveries(t *testing.T) {
	ev := func(at time.Duration, kind string, edge int, rel *int, lat Duration, drop float64) EventSpec {
		return EventSpec{At: Duration(at), Kind: kind, Edge: edge, Relayer: rel, ExtraLatency: lat, ExtraDrop: drop}
	}
	s := time.Second
	events := []EventSpec{
		ev(9*s, "heal", 0, intp(-1), 0, 0),               // 0: closes 1
		ev(1*s, "partition", 0, intp(-1), 0, 0),          // 1
		ev(2*s, "partition", 0, intp(0), 0, 0),           // 2: another target, left open
		ev(3*s, "latency-spike", 1, nil, Duration(s), 0), // 3
		ev(4*s, "latency-spike", 1, nil, 0, 0),           // 4: closes 3
		ev(5*s, "relayer-resume", 0, intp(1), 0, 0),      // 5: nothing open
		ev(6*s, "drop-burst", 0, nil, 0, 0.5),            // 6
		ev(7*s, "relayer-pause", 0, intp(1), 0, 0),       // 7
		ev(8*s, "relayer-resume", 0, intp(1), 0, 0),      // 8: closes 7
		ev(10*s, "drop-burst", 0, nil, 0, 0),             // 9: closes 6
	}
	want := [][]int{{1, 0}, {2}, {3, 4}, {6, 9}, {7, 8}}
	if got := faultUnits(events); !reflect.DeepEqual(got, want) {
		t.Fatalf("faultUnits = %v, want %v", got, want)
	}
}
