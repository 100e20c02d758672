package scenario

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"ibcbench/internal/tendermint/store"
	"ibcbench/internal/topo"
)

// missedReceiptSpec is the smallest double refund search found in
// performance mode: two relayers with clearing, relayer 0 paused
// from 12.201 s to 23.495 s and relayer 1 paused at 18.148 s for good.
// At run seed 5 the packets are received on ibc-1, and a relayer that
// missed the receipts also has them timed out and refunded on ibc-0.
func missedReceiptSpec() Spec {
	return Spec{
		Name:     "missedreceipt",
		Topology: TopologySpec{Preset: "two"},
		Deploy:   DeploySpec{RelayersPerEdge: 2, ClearIntervalBlocks: 1},
		Workload: WorkloadSpec{Routes: []RouteSpec{
			{Path: []int{0, 1}, Transfers: 4, TimeoutBlocks: 5},
		}},
		Chaos: []EventSpec{
			{At: Duration(12201 * time.Millisecond), Kind: "relayer-pause", Edge: 0, Relayer: intp(0)},
			{At: Duration(18148 * time.Millisecond), Kind: "relayer-pause", Edge: 0, Relayer: intp(1)},
			{At: Duration(23495 * time.Millisecond), Kind: "relayer-resume", Edge: 0, Relayer: intp(0)},
		},
		Seed: 5,
	}
}

// TestConservationCheckedPerCommit: the per-commit check reports the
// double refund at the height of the ibc-0 block that refunded, not at
// quiescence, and Run's report gives it once, with that height.
func TestConservationCheckedPerCommit(t *testing.T) {
	spec := missedReceiptSpec()
	sc, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sc.Deploy
	cfg.Seed = spec.Seed
	dep, err := topo.Deploy(sc.Topology, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := watchConservation(dep)
	src := dep.Chains[0]
	var refundHeight int64
	src.Engine.OnCommit(func(cb *store.CommittedBlock) {
		if _, _, _, refunded := src.Transfer.Stats(); refunded > 0 && refundHeight == 0 {
			refundHeight = cb.Block.Header.Height
		}
	})
	if _, err := sc.RunOn(dep, spec.Seed); err != nil {
		t.Fatal(err)
	}
	if refundHeight == 0 {
		t.Fatal("ibc-0 refunded nothing: the spec no longer reaches the double refund")
	}
	if len(w.out) != 1 {
		t.Fatalf("the per-commit check reported %d violations, want 1: %v", len(w.out), w.out)
	}
	v := w.out[0]
	at := fmt.Sprintf("after %s committed height %d:", src.ID, refundHeight)
	if v.Assertion != AssertConservation || v.Chain != dep.Chains[1].ID || v.Height != refundHeight ||
		!strings.HasPrefix(v.Detail, at) {
		t.Fatalf("the per-commit check reported %+v, want %s on %s at %s height %d",
			v, AssertConservation, dep.Chains[1].ID, src.ID, refundHeight)
	}
	if last := src.Store.Height(); last <= refundHeight {
		t.Fatalf("ibc-0 ended at height %d: the refund at %d was not before quiescence", last, refundHeight)
	}
	// Alone, the quiescent check finds the same voucher, with no height;
	// after the per-commit check it does not report it a second time.
	if q := Check(dep, DefaultAssertions()); len(q) != 1 || q[0].Assertion != AssertConservation || q[0].Height != 0 {
		t.Fatalf("quiescent Check = %v, want the one conservation verdict", q)
	}
	if all := check(dep, DefaultAssertions(), w); len(all) != 1 || all[0] != v {
		t.Fatalf("check after the per-commit check = %v, want its verdict alone", all)
	}

	rep, err := Run(spec, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 1 || rep.Violations[0] != v {
		t.Fatalf("Run reported %v, want %v", rep.Violations, v)
	}
}
