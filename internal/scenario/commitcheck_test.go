package scenario

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"ibcbench/internal/app"
	"ibcbench/internal/ibc"
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
	var w *commitWatch
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
	w = watchCommits(dep)
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

// TestPrematureDeletionCheckedPerCommit: the per-commit check reports a
// packet commitment deleted while its packet is neither received nor
// timed out, at the height of the block that deleted it, under
// timeout-refunds. The deletion is planted: the first ibc-0 commit that
// sends a packet deletes that packet's commitment again, which no
// relayer has had the chance to deliver.
func TestPrematureDeletionCheckedPerCommit(t *testing.T) {
	spec := Spec{Name: "premature", Topology: TopologySpec{Preset: "two"}, Workload: WorkloadSpec{Rate: 1, Windows: 1}, Seed: 1}
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
	var plantHeight int64
	var key string
	src.Engine.OnCommit(func(cb *store.CommittedBlock) { // before w's hooks, so w sees it at this height
		be := src.Events.At(cb.Block.Header.Height)
		if plantHeight != 0 || be == nil || len(be.Txs) == 0 || len(be.Txs[0].Sends) == 0 {
			return
		}
		p := be.Txs[0].Sends[0]
		key = string(ibc.AppendPacketCommitmentKey(nil, p.SourcePort, p.SourceChannel, p.Sequence))
		src.App.State().Delete([]byte(key))
		src.App.State().CommitTx()
		plantHeight = cb.Block.Header.Height
	})
	w := watchCommits(dep)
	if _, err := sc.RunOn(dep, spec.Seed); err != nil {
		t.Fatal(err)
	}
	if plantHeight == 0 {
		t.Fatal("ibc-0 sent no packet: nothing was deleted")
	}
	if len(w.deleted) != 1 {
		t.Fatalf("the per-commit check reported %d premature deletions, want 1: %v", len(w.deleted), w.deleted)
	}
	v := w.deleted[0]
	at := fmt.Sprintf("after %s committed height %d: commitment %s deleted", src.ID, plantHeight, key)
	if v.Assertion != AssertTimeoutRefunds || v.Chain != src.ID || v.Height != plantHeight || !strings.HasPrefix(v.Detail, at) {
		t.Fatalf("the per-commit check reported %+v, want %s on %s at height %d for %s",
			v, AssertTimeoutRefunds, src.ID, plantHeight, key)
	}
	// The quiescent check sees a settled packet; only the watch reports it.
	if q := Check(dep, DefaultAssertions()); len(q) != 0 {
		t.Fatalf("quiescent Check = %v, want nothing", q)
	}
	if all := check(dep, DefaultAssertions(), w); len(all) != 1 || all[0] != v {
		t.Fatalf("check after the per-commit check = %v, want its verdict alone", all)
	}
}

// TestReplayCheckedPerCommit: the per-commit check reports an
// acknowledgement written twice for one packet, at the height of the
// block that wrote it again. The defect is planted as a receipt never
// written: after each ibc-1 commit, the keys of the packets it
// acknowledged are deleted again (the receipt, and the acknowledgement
// that would refuse the second write). Relayer 0 is paused while
// relayer 1 delivers; on resuming, its clearing pass finds no receipt
// for the packets it missed and delivers them again, and ibc-1 takes
// each for a first delivery.
func TestReplayCheckedPerCommit(t *testing.T) {
	spec := Spec{
		Name:     "replay",
		Topology: TopologySpec{Preset: "two"},
		Deploy:   DeploySpec{RelayersPerEdge: 2, ClearIntervalBlocks: 1},
		Workload: WorkloadSpec{Rate: 2, Windows: 2},
		Chaos: []EventSpec{
			{At: Duration(12 * time.Second), Kind: "relayer-pause", Edge: 0, Relayer: intp(0)},
			{At: Duration(30 * time.Second), Kind: "relayer-resume", Edge: 0, Relayer: intp(0)},
		},
		Seed: 1,
	}
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
	dst := dep.Chains[1]
	firstAck := map[string]int64{} // receipt key -> height first acknowledged
	var replayHeight int64
	var replayKey string
	dst.Engine.OnCommit(func(cb *store.CommittedBlock) { // before w's hooks
		h := cb.Block.Header.Height
		be := dst.Events.At(h)
		if be == nil {
			return
		}
		for _, te := range be.Txs {
			for _, aw := range te.AckWrites {
				p := aw.Packet
				key := string(ibc.AppendPacketReceiptKey(nil, p.DestPort, p.DestChannel, p.Sequence))
				if _, again := firstAck[key]; again && replayHeight == 0 {
					replayHeight, replayKey = h, key
				} else if !again {
					firstAck[key] = h
				}
				dst.App.State().Delete([]byte(key))
				dst.App.State().Delete(ibc.AppendPacketAckKey(nil, p.DestPort, p.DestChannel, p.Sequence))
			}
		}
		dst.App.State().CommitTx()
	})
	w := watchCommits(dep)
	if _, err := sc.RunOn(dep, spec.Seed); err != nil {
		t.Fatal(err)
	}
	if replayHeight == 0 {
		t.Fatal("no packet was delivered twice: nothing was replayed")
	}
	var replays []Violation
	for _, v := range w.out {
		if strings.Contains(v.Detail, "acknowledged again") {
			replays = append(replays, v)
		}
	}
	if len(replays) == 0 {
		t.Fatalf("the per-commit check reported no replay; its verdicts: %v", w.out)
	}
	v := replays[0]
	at := fmt.Sprintf("after %s committed height %d: receipt %s acknowledged again (first at height %d)",
		dst.ID, replayHeight, replayKey, firstAck[replayKey])
	if v.Assertion != AssertConservation || v.Chain != dst.ID || v.Height != replayHeight || !strings.HasPrefix(v.Detail, at) {
		t.Fatalf("the first replay verdict is %+v, want %s on %s at height %d: %q", v, AssertConservation, dst.ID, replayHeight, at)
	}
	if all := check(dep, DefaultAssertions(), w); !slices.Contains(all, v) {
		t.Fatalf("check after the per-commit check = %v, want it to carry %v", all, v)
	}
}
