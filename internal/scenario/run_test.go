package scenario

import (
	"testing"
	"time"

	"ibcbench/internal/tendermint/types"
)

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
	}{{timeoutstormSpec(), 6}, {partitioned, 3}} {
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
	spec := timeoutproofsSpec()
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
