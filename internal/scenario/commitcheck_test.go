package scenario

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"ibcbench/internal/app"
	"ibcbench/internal/chain"
	"ibcbench/internal/ibc"
	"ibcbench/internal/ibc/denom"
	"ibcbench/internal/ibc/pfm"
	"ibcbench/internal/ibc/transfer"
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

// deployed compiles spec and deploys it at the spec's seed, unstarted.
func deployed(t *testing.T, spec Spec) (topo.Scenario, *topo.Deployment) {
	t.Helper()
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
	return sc, dep
}

// A planted write lands after a commit, in the chain's next block: its
// app hash is the first to hold the write, and the block's write set is
// where the watch reads it. So each planted test below expects its
// verdict at the planting chain's next height.

// TestConservationCheckedPerCommit: the per-commit check reports a
// refund of a received packet at the height of the ibc-0 block that
// refunded, not at quiescence. The refund is planted after the fact: the
// first ibc-0 commit that sees a voucher minted on ibc-1 releases one
// escrowed token behind it, as the timeout of a received packet did.
func TestConservationCheckedPerCommit(t *testing.T) {
	spec := missedReceiptSpec()
	sc, dep := deployed(t, spec)
	src, dst := dep.Chains[0], dep.Chains[1]
	w := watchCommits(dep)
	var plantHeight int64
	src.Engine.OnCommit(func(cb *store.CommittedBlock) {
		if plantHeight != 0 {
			return
		}
		var voucher denom.Trace
		dst.App.State().RangePrefix(app.SupplyPrefix, func(key string, _ []byte) bool {
			voucher = denom.Parse(strings.TrimPrefix(key, app.SupplyPrefix))
			return voucher.IsNative()
		})
		if voucher.IsNative() {
			return
		}
		escrow := transfer.EscrowAccount(voucher.Hops[0].Port, dep.Links[0].Pair.ChannelAB)
		if err := src.App.Bank().Send(escrow, "refunded", app.Coin{Denom: voucher.Base, Amount: 1}); err != nil {
			t.Fatal(err)
		}
		src.App.State().CommitTx()
		plantHeight = cb.Block.Header.Height
	})
	if _, err := sc.RunOn(dep, spec.Seed); err != nil {
		t.Fatal(err)
	}
	if plantHeight == 0 {
		t.Fatal("ibc-1 minted no voucher: nothing was refunded")
	}
	if len(w.out) != 1 {
		t.Fatalf("the per-commit check reported %d violations, want 1: %v", len(w.out), w.out)
	}
	v := w.out[0]
	refundHeight := plantHeight + 1
	at := fmt.Sprintf("after %s committed height %d: voucher ", src.ID, refundHeight)
	if v.Assertion != AssertConservation || v.Chain != dst.ID || v.Height != refundHeight ||
		!strings.HasPrefix(v.Detail, at) {
		t.Fatalf("the per-commit check reported %+v, want %s on %s at %s height %d",
			v, AssertConservation, dst.ID, src.ID, refundHeight)
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

// plantedOnce runs a two-chain, one-window spec at seed 1 with a watch,
// after running plant at each commit of chain i until it reports a
// planted write, and returns the planting chain, the height of the
// commit after which it planted, the watch's verdicts, those of check
// after the watch (which lead with the watch's), and those of the
// quiescent Check alone.
func plantedOnce(t *testing.T, i int, plant func(c *chain.Chain, h int64) bool) (c *chain.Chain, h int64, got, all, quiet []Violation) {
	t.Helper()
	spec := Spec{Name: "planted", Topology: TopologySpec{Preset: "two"}, Workload: WorkloadSpec{Rate: 1, Windows: 1}, Seed: 1}
	return plantedOn(t, spec, i, plant)
}

// plantedOn is plantedOnce on spec.
func plantedOn(t *testing.T, spec Spec, i int, plant func(c *chain.Chain, h int64) bool) (c *chain.Chain, h int64, got, all, quiet []Violation) {
	t.Helper()
	sc, dep := deployed(t, spec)
	c = dep.Chains[i]
	w := watchCommits(dep)
	var plantHeight int64
	c.Engine.OnCommit(func(cb *store.CommittedBlock) {
		if h := cb.Block.Header.Height; plantHeight == 0 && plant(c, h) {
			c.App.State().CommitTx()
			plantHeight = h
		}
	})
	if _, err := sc.RunOn(dep, spec.Seed); err != nil {
		t.Fatal(err)
	}
	if plantHeight == 0 {
		t.Fatalf("%s: nothing was planted", c.ID)
	}
	if c.Store.Height() <= plantHeight {
		t.Fatalf("%s ended at height %d, the height of the plant", c.ID, plantHeight)
	}
	if all = check(dep, DefaultAssertions(), w); len(all) < len(w.out) || !slices.Equal(all[:len(w.out)], w.out) {
		t.Fatalf("check after the per-commit check = %v, want it to lead with %v", all, w.out)
	}
	return c, plantHeight, w.out, all, Check(dep, DefaultAssertions())
}

// wantOneVerdict fails unless exactly one of the verdicts in all names
// rule ("" matches every verdict), and it is a verdict of assertion on c
// at height h whose detail begins with prefix; it returns that verdict.
// (A planted defect may break other rules later.)
func wantOneVerdict(t *testing.T, all []Violation, rule, assertion string, c *chain.Chain, h int64, prefix string) Violation {
	t.Helper()
	var got []Violation
	for _, v := range all {
		if strings.Contains(v.Detail, rule) {
			got = append(got, v)
		}
	}
	if len(got) != 1 {
		t.Fatalf("the per-commit check reported %d violations of %q, want 1: %v", len(got), rule, all)
	}
	if v := got[0]; v.Assertion != assertion || v.Chain != c.ID || v.Height != h || !strings.HasPrefix(v.Detail, prefix) {
		t.Fatalf("the per-commit check reported %+v, want %s on %s at height %d: %q", v, assertion, c.ID, h, prefix)
	}
	return got[0]
}

// TestPrematureDeletionCheckedPerCommit: the per-commit check reports a
// packet commitment deleted while its packet is neither received nor
// timed out, at the height of the block that deleted it, under
// timeout-refunds. The deletion is planted: the first ibc-0 commit that
// sends a packet deletes that packet's commitment again, before a
// relayer has had the chance to deliver it. The destination then refuses
// that packet's recv, as a proof of the commitment would fail, and the
// relayer's one retry of the batch it rode in fails with it.
func TestPrematureDeletionCheckedPerCommit(t *testing.T) {
	var key, id string
	src, h, got, all, quiet := plantedOnce(t, 0, func(c *chain.Chain, h int64) bool {
		be := c.Events.At(h)
		if be == nil || len(be.Txs) == 0 || len(be.Txs[0].Sends) == 0 {
			return false
		}
		p := be.Txs[0].Sends[0]
		id = fmt.Sprintf("packet %s/%s#%d ", p.SourcePort, p.SourceChannel, p.Sequence)
		key = string(ibc.AppendPacketCommitmentKey(nil, p.SourcePort, p.SourceChannel, p.Sequence))
		commitments := ibc.PacketRecords(nil, app.Commitment, p.SourcePort, p.SourceChannel)
		c.App.State().DeleteRecord(&commitments, p.Sequence)
		return true
	})
	// No rule but C5's deletion half breaks: the watch reports this one
	// verdict, and check after it reports nothing more.
	v := wantOneVerdict(t, got, "", AssertTimeoutRefunds, src, h+1,
		fmt.Sprintf("after %s committed height %d: commitment %s deleted, but ", src.ID, h+1, key))
	// The quiescent check sees the deleted packet settled; only the watch
	// reports it. What the quiescent check reports is the rest of the
	// refused batch, stuck in flight.
	if len(quiet) == 0 {
		t.Fatal("quiescent Check reports nothing, want the packets of the refused batch stuck")
	}
	for _, q := range quiet {
		if q.Assertion != AssertNoStuckPackets || strings.Contains(q.Detail, id) || !strings.Contains(q.Detail, "in flight (no receipt on ") {
			t.Fatalf("quiescent Check = %v, want only packets other than the deleted one stuck in flight", quiet)
		}
	}
	if len(all) != 1+len(quiet) || all[0] != v || !slices.Equal(all[1:], quiet) {
		t.Fatalf("check after the per-commit check = %v, want its verdict, then the quiescent Check's", all)
	}
}

// TestDeletedReceiptCheckedPerCommit: C5's growth half reports a receipt
// deleted, at the height of the block that deleted it. The deletion is
// planted: the first ibc-1 commit that writes an acknowledgement
// deletes that packet's receipt again.
func TestDeletedReceiptCheckedPerCommit(t *testing.T) {
	var key string
	dst, h, got, _, _ := plantedOnce(t, 1, func(c *chain.Chain, h int64) bool {
		be := c.Events.At(h)
		if be == nil || len(be.Txs) == 0 || len(be.Txs[0].AckWrites) == 0 {
			return false
		}
		p := be.Txs[0].AckWrites[0].Packet
		key = string(ibc.AppendPacketReceiptKey(nil, p.DestPort, p.DestChannel, p.Sequence))
		receipts := ibc.PacketRecords(nil, app.Receipt, p.DestPort, p.DestChannel)
		c.App.State().DeleteRecord(&receipts, p.Sequence)
		return true
	})
	wantOneVerdict(t, got, "receipts only grow", AssertTimeoutRefunds, dst, h+1,
		fmt.Sprintf("after %s committed height %d: receipt %s deleted: receipts only grow", dst.ID, h+1, key))
}

// TestDoubleSettleCheckedPerCommit: C4's settle third reports a packet
// commitment deleted after its packet already settled, at the height of
// the block that deleted it again. The deletion is planted: the first
// ibc-0 commit that deletes a commitment (an ack settling its packet)
// deletes it once more.
func TestDoubleSettleCheckedPerCommit(t *testing.T) {
	var key string
	src, h, got, _, _ := plantedOnce(t, 0, func(c *chain.Chain, h int64) bool {
		for _, wr := range c.App.State().Written() {
			if kind, channel := wr.Record(); kind == app.Commitment && wr.Deleted {
				key = string(wr.AppendKey(nil))
				commitments := ibc.PacketRecords(nil, app.Commitment, "transfer", channel)
				c.App.State().DeleteRecord(&commitments, wr.Seq)
				return true
			}
		}
		return false
	})
	wantOneVerdict(t, got, "settled twice", AssertConservation, src, h+1,
		fmt.Sprintf("after %s committed height %d: commitment %s deleted again: settled twice", src.ID, h+1, key))
}

// TestStrandedForwardCheckedPerCommit: C6 reports a PFM forward record
// deleted while its hop's commitment is stored, at the height of the
// block that deleted it. The deletion is planted on a forwarded route
// across three chains: the first commit of the middle chain that stores
// an in-flight record deletes it again, so the hop's settlement finds
// no record and never releases the origin's held acknowledgement.
func TestStrandedForwardCheckedPerCommit(t *testing.T) {
	spec := Spec{
		Name:     "stranded",
		Topology: TopologySpec{Preset: "line:3"},
		Workload: WorkloadSpec{Routes: []RouteSpec{{Path: []int{0, 1, 2}, Transfers: 4, Forwarded: true}}},
		Seed:     1,
	}
	var key string
	mid, h, got, _, _ := plantedOn(t, spec, 1, func(c *chain.Chain, h int64) bool {
		for _, wr := range c.App.State().Written() {
			if _, _, _, ok := pfm.CutInFlightKey(wr.Key); ok && !wr.Deleted {
				key = wr.Key
				c.App.State().Delete([]byte(key))
				return true
			}
		}
		return false
	})
	wantOneVerdict(t, got, "", AssertConservation, mid, h+1,
		fmt.Sprintf("after %s committed height %d: forward record %s deleted while its hop's commitment is stored", mid.ID, h+1, key))
}

// TestStrandedRecordAfterHopCheckedPerCommit: C6's other direction
// reports a hop's commitment deleted while its PFM forward record stays
// stored, at the height of the block that deleted it, which wrote no
// in-flight key. The deletion is planted on the forwarded route of
// TestStrandedForwardCheckedPerCommit: the first commit of the middle
// chain that stores an in-flight record deletes its hop's commitment, so
// no ack or timeout of the hop can pop the record and release the funds.
func TestStrandedRecordAfterHopCheckedPerCommit(t *testing.T) {
	spec := Spec{
		Name:     "stranded-record",
		Topology: TopologySpec{Preset: "line:3"},
		Workload: WorkloadSpec{Routes: []RouteSpec{{Path: []int{0, 1, 2}, Transfers: 4, Forwarded: true}}},
		Seed:     1,
	}
	var key, record string
	mid, h, got, _, _ := plantedOn(t, spec, 1, func(c *chain.Chain, h int64) bool {
		for _, wr := range c.App.State().Written() {
			if port, channel, seq, ok := pfm.CutInFlightKey(wr.Key); ok && !wr.Deleted {
				record = wr.Key
				key = string(ibc.AppendPacketCommitmentKey(nil, port, channel, seq))
				commitments := ibc.PacketRecords(nil, app.Commitment, port, channel)
				c.App.State().DeleteRecord(&commitments, seq)
				return true
			}
		}
		return false
	})
	wantOneVerdict(t, got, "stays stored", AssertConservation, mid, h+1,
		fmt.Sprintf("after %s committed height %d: commitment %s deleted while its forward record %s stays stored", mid.ID, h+1, key, record))
}

// TestLoweredSendSequenceCheckedPerCommit: C5's growth half reports a
// channel end's nextSequenceSend set back, at the height of the block
// that set it. The write is planted: the first ibc-0 commit that sends
// on a channel sets its next send sequence back to 1.
func TestLoweredSendSequenceCheckedPerCommit(t *testing.T) {
	var key string
	src, h, got, _, _ := plantedOnce(t, 0, func(c *chain.Chain, h int64) bool {
		be := c.Events.At(h)
		if be == nil || len(be.Txs) == 0 || len(be.Txs[0].Sends) == 0 {
			return false
		}
		p := be.Txs[0].Sends[0]
		key = string(ibc.AppendNextSequenceSendKey(nil, p.SourcePort, p.SourceChannel))
		c.App.State().Set([]byte(key), []byte("1"))
		return true
	})
	wantOneVerdict(t, got, "send sequences only grow", AssertTimeoutRefunds, src, h+1,
		fmt.Sprintf("after %s committed height %d: %s fell from ", src.ID, h+1, key))
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
	sc, dep := deployed(t, spec)
	dst := dep.Chains[1]
	firstAck := map[string]int64{} // receipt key -> height first acknowledged
	var replayHeight int64
	var replayKey string
	w := watchCommits(dep)
	dst.Engine.OnCommit(func(cb *store.CommittedBlock) {
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
				receipts := ibc.PacketRecords(nil, app.Receipt, p.DestPort, p.DestChannel)
				acks := ibc.PacketRecords(nil, app.Ack, p.DestPort, p.DestChannel)
				dst.App.State().DeleteRecord(&receipts, p.Sequence)
				dst.App.State().DeleteRecord(&acks, p.Sequence)
			}
		}
		dst.App.State().CommitTx()
	})
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
	at := fmt.Sprintf("after %s committed height %d: receipt %s acknowledged again: a replay was accepted",
		dst.ID, replayHeight, replayKey)
	if v.Assertion != AssertConservation || v.Chain != dst.ID || v.Height != replayHeight || !strings.HasPrefix(v.Detail, at) {
		t.Fatalf("the first replay verdict is %+v, want %s on %s at height %d: %q", v, AssertConservation, dst.ID, replayHeight, at)
	}
	if all := check(dep, DefaultAssertions(), w); !slices.Contains(all, v) {
		t.Fatalf("check after the per-commit check = %v, want it to carry %v", all, v)
	}
}

// TestSeqSetReportsExactlyTheRepeats: the low-water mark and bitset C4
// keeps per channel take receipts out of order, across a word, with a
// gap filled later, and report a sequence exactly when it was added
// before.
func TestSeqSetReportsExactlyTheRepeats(t *testing.T) {
	var a seqSet
	seen := map[uint64]bool{}
	for i, seq := range []uint64{3, 1, 70, 3, 1, 2, 70, 2, 65, 64, 63} {
		if got := a.add(seq); got != seen[seq] {
			t.Fatalf("add %d (#%d) reported a repeat: %v, want %v", seq, i, got, seen[seq])
		}
		seen[seq] = true
	}
	for seq := uint64(4); seq <= 200; seq++ {
		if got := a.add(seq); got != seen[seq] {
			t.Fatalf("add %d reported a repeat: %v, want %v", seq, got, seen[seq])
		}
		seen[seq] = true
	}
	if a.lo != 192 || len(a.bits) != 1 {
		t.Fatalf("after 1..200 the set keeps lo %d and %d words, want 192 and 1", a.lo, len(a.bits))
	}
	for _, seq := range []uint64{1, 64, 192, 193, 200} {
		if !a.add(seq) {
			t.Fatalf("add %d after 1..200 reported no repeat", seq)
		}
	}
	if a.add(201) {
		t.Fatal("add 201 reported a repeat")
	}
}
