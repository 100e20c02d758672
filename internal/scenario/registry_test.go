package scenario

import (
	"strings"
	"testing"
	"time"

	"ibcbench/internal/metrics"
	"ibcbench/internal/tendermint/types"
)

// TestRegistryLint is the CI registry-lint gate in miniature: every
// registered scenario validates, compiles, and encodes canonically.
func TestRegistryLint(t *testing.T) {
	names := Names()
	if len(names) < 5 {
		t.Fatalf("expected the built-in library, got %v", names)
	}
	for _, name := range names {
		if err := Lint(name); err != nil {
			t.Errorf("lint %s: %v", name, err)
		}
	}
}

// TestBuiltinNamesUnique: a name keys the registry, so no two built-ins
// may share one (Lookup would silently serve the first).
func TestBuiltinNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range builtins {
		if seen[e.Spec.Name] {
			t.Errorf("built-in name %q appears twice", e.Spec.Name)
		}
		seen[e.Spec.Name] = true
	}
}

// TestShortBuiltinsHoldAssertions runs every Short builtin end to end:
// the run succeeds, traffic completes, and all default assertions hold.
// This is what `ibcbench suite -short` executes. Each also runs with
// real merkle proofs at seeds 1 and 2: the keeper checks every
// membership proof it accepts against the counterparty's state and
// panics on a disagreement, so such a run is also a differential test
// of the proof path against that state.
func TestShortBuiltinsHoldAssertions(t *testing.T) {
	ran := 0
	for _, name := range Names() {
		e, _ := Lookup(name)
		if !e.Short {
			continue
		}
		ran++
		full := e.Spec
		full.Deploy.FullProofs = true
		for _, c := range []struct {
			name string
			spec Spec
			seed int64
		}{{name, e.Spec, 0}, {name + "/fullProofs/seed-1", full, 1}, {name + "/fullProofs/seed-2", full, 2}} {
			t.Run(c.name, func(t *testing.T) {
				rep, err := Run(c.spec, c.seed, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Passed() {
					for _, v := range rep.Violations {
						t.Errorf("violation: %s", v)
					}
				}
				total := rep.Result.Total[metrics.StatusCompleted] + rep.Result.RoutesCompleted
				if total == 0 {
					t.Error("builtin completed no traffic")
				}
			})
		}
	}
	if ran == 0 {
		t.Fatal("no Short builtins registered")
	}
}

// TestBuiltinSpecsAreSelfDescribing: the catalogue renders something
// usable for CLI help.
func TestBuiltinDescriptions(t *testing.T) {
	for _, name := range Names() {
		e, _ := Lookup(name)
		if strings.TrimSpace(e.Desc) == "" {
			t.Errorf("builtin %s has no description", name)
		}
	}
}

// lastHeaders runs the spec at its own seed and returns every chain's
// final header hash. A header chains every earlier block, so equal
// hashes mean the same transactions in the same order at every height.
func lastHeaders(t *testing.T, s Spec) []types.Hash {
	t.Helper()
	sc, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	_, dep, err := sc.RunDeployed(s.Seed)
	if err != nil {
		t.Fatal(err)
	}
	var out []types.Hash
	for _, c := range dep.Chains {
		cb, err := c.Store.Block(c.Store.Height())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, cb.Block.Header.Hash())
	}
	return out
}

// TestSameSeedSameBlocks: several packets expiring on one relayer frame
// must be timed out in a fixed order, not in map order — the order of
// the MsgTimeouts is the order of the txs, and so the block hashes.
func TestSameSeedSameBlocks(t *testing.T) {
	storm, _ := Lookup("timeoutstorm")
	relayer0 := 0
	// The same expiring route behind a partitioned second hop, so the
	// packets that pile up are timed out by the gap-clearing pass.
	partitioned := Spec{
		Name:     "timeouts-behind-partition",
		Topology: TopologySpec{Preset: "line:3"},
		Deploy:   DeploySpec{ClearIntervalBlocks: 1},
		Workload: WorkloadSpec{Rate: 2, Windows: 4, Routes: []RouteSpec{
			{Path: []int{0, 1, 2}, Transfers: 12, Forwarded: true, TimeoutBlocks: 1},
		}},
		Chaos: []EventSpec{
			{At: Duration(8 * time.Second), Kind: "partition", Edge: 1, Relayer: &relayer0},
			{At: Duration(40 * time.Second), Kind: "heal", Edge: 1, Relayer: &relayer0},
		},
		Seed:         11,
		SettleBlocks: 24,
	}
	for _, c := range []struct {
		spec Spec
		runs int
	}{{storm.Spec, 6}, {partitioned, 3}} {
		want := lastHeaders(t, c.spec)
		for i := 1; i < c.runs; i++ {
			for chain, got := range lastHeaders(t, c.spec) {
				if got != want[chain] {
					t.Errorf("%s: run %d, chain %d: last header %x, first run had %x", c.spec.Name, i, chain, got[:6], want[chain][:6])
				}
			}
		}
	}
}

// TestTimeoutProofsReachNonMembership: under full proofs the storm's
// hop timeouts are still delivered, each MsgTimeout proving the absence
// of the destination receipt, and the forward middleware on the middle
// chain refunds every unwound hop.
func TestTimeoutProofsReachNonMembership(t *testing.T) {
	e, ok := Lookup("timeoutproofs")
	if !ok || !e.Spec.Deploy.FullProofs {
		t.Fatal("timeoutproofs is not a full-proof built-in")
	}
	sc, err := Compile(e.Spec)
	if err != nil {
		t.Fatal(err)
	}
	_, dep, err := sc.RunDeployed(e.Spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if v := Check(dep, DefaultAssertions()); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	var timeouts uint64
	for _, l := range dep.Links {
		for _, r := range l.Relayers {
			timeouts += r.Stats().TimeoutsDelivered
		}
	}
	if timeouts == 0 {
		t.Fatal("no MsgTimeout delivered with full proofs")
	}
	if unwound := dep.Chains[1].Forward.Stats().Unwound; unwound == 0 {
		t.Fatal("the middle chain's forward middleware refunded nothing")
	}
	t.Logf("%d timeouts delivered with non-membership proofs", timeouts)
}
