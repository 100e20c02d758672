package scenario

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"ibcbench/internal/app"
	"ibcbench/internal/sim"
	"ibcbench/internal/tendermint/store"
	"ibcbench/internal/topo"
)

// missedReceiptSpec is the smallest double refund search found in
// performance mode before relayers probed for a receipt ahead of each
// timeout: two relayers with clearing, relayer 0 paused from 12.201 s to
// 23.495 s and relayer 1 paused at 18.148 s for good. At run seed 5 the
// packets are received on ibc-1, and relayer 0, which missed the
// receipts, had them timed out and refunded on ibc-0 as well.
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

// TestMissedReceiptIsNotRefunded: the relayer that missed the receipts
// probes for them before it times a packet out, finds them, and relays
// the acks instead, so every default assertion holds at every run seed.
func TestMissedReceiptIsNotRefunded(t *testing.T) {
	spec := missedReceiptSpec()
	for seed := int64(1); seed <= 5; seed++ {
		rep, err := Run(spec, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Passed() {
			t.Errorf("seed %d: violations: %v", seed, rep.Violations)
		}
	}
}

// TestTimeoutSearchFindsNoDoubleRefund runs every candidate timeline of
// the fault space the double refund was found in (missedReceiptSpec's
// deployment and route under partitions, drop bursts and relayer pauses)
// at generator seeds 1–6, and none may break token conservation.
func TestTimeoutSearchFindsNoDoubleRefund(t *testing.T) {
	spec := missedReceiptSpec()
	spec.Chaos = nil
	spec.Faults = &FaultSpace{
		Kinds:          []string{"partition", "drop-burst", "relayer-pause"},
		MaxEvents:      4,
		Horizon:        Duration(60 * time.Second),
		MaxFaultWindow: Duration(50 * time.Second),
	}
	fs, err := resolveFaults(spec)
	if err != nil {
		t.Fatal(err)
	}
	var candidates [][]EventSpec
	for gen := int64(1); gen <= 6; gen++ {
		rng := sim.NewRNG(gen)
		for i := 0; i < 64; i++ {
			candidates = append(candidates, generateTimeline(rng, spec, fs))
		}
	}
	type verdict struct {
		v   []Violation
		err error
	}
	for i, r := range ParallelMap(candidates, func(events []EventSpec) verdict {
		v, err := runWith(spec, events)
		return verdict{v, err}
	}) {
		if r.err != nil {
			t.Fatal(r.err)
		}
		for _, v := range r.v {
			if v.Assertion == AssertConservation {
				t.Errorf("generator seed %d, candidate %d: %v", i/64+1, i%64, v)
			}
		}
	}
}

// TestConservationCheckedPerCommit: the per-commit check reports a
// refund of a received packet at the height of the ibc-0 block that
// refunded, not at quiescence. The refund is planted after the fact: the
// first ibc-0 commit that sees the voucher minted on ibc-1 releases one
// escrowed token, as the timeout of a received packet did.
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
	src := dep.Chains[0]
	var w *conservationWatch
	var refundHeight int64
	src.Engine.OnCommit(func(cb *store.CommittedBlock) { // before w's hooks, so w sees it at this height
		if refundHeight != 0 || len(w.vouchers) == 0 {
			return
		}
		v := w.vouchers[0]
		if v.chain.App.Bank().Supply(v.denom) == 0 {
			return
		}
		if err := src.App.Bank().Send(v.escrowAccount, "refunded", app.Coin{Denom: v.inner, Amount: 1}); err != nil {
			t.Fatal(err)
		}
		src.App.State().CommitTx()
		refundHeight = cb.Block.Header.Height
	})
	w = watchConservation(dep)
	if _, err := sc.RunOn(dep, spec.Seed); err != nil {
		t.Fatal(err)
	}
	if refundHeight == 0 {
		t.Fatal("ibc-1 minted no voucher: nothing was refunded")
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
}
