package scenario

import (
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
	"ibcbench/internal/metrics"
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
		Workload: topo.Workload{Routes: []topo.Route{
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

// plantedDefect is one row of the table of planted defects: a defect
// planted by a commit hook of one chain, and the per-commit verdict that
// catches it. A planted write lands after a commit, in the chain's next
// block: its app hash is the first to hold the write, and the block's
// write set is where the watch reads it.
type plantedDefect struct {
	name string
	spec Spec // run at its own seed
	on   int  // the planting chain
	// plant runs after each commit of chain on, until it reports a write
	// planted, or after every commit if every is set.
	plant func(dep *topo.Deployment, c *chain.Chain, h int64) bool
	every bool
	// The oracle: the per-commit verdicts whose detail holds rule ("" is
	// every verdict), how many there are, and the first one's assertion,
	// chain, height and detail prefix. (A planted defect may break other
	// rules later.)
	rule      string
	count     int
	assertion string
	chain     string
	height    int64
	prefix    string
	// quiescent, when set, checks what the quiescent Check reports alone
	// (quiet) and after the per-commit check (all), given the verdict v.
	quiescent func(t *testing.T, v Violation, all, quiet []Violation)
}

// TestPlantedDefectsDetected is the table of planted defects: each row
// plants one defect and names the oracle that catches it, the chain,
// and the exact height. A defect the per-commit check misses stays in
// the table with a count of 0, pinning what the checks report instead.
func TestPlantedDefectsDetected(t *testing.T) {
	// One window of transfers on two chains, and a forwarded route
	// across three.
	two := Spec{Name: "planted", Topology: TopologySpec{Preset: "two"}, Workload: topo.Workload{Rate: 1, Windows: 1}, Seed: 1}
	forwarded := Spec{
		Name:     "stranded",
		Topology: TopologySpec{Preset: "line:3"},
		Workload: topo.Workload{Routes: []topo.Route{{Path: []int{0, 1, 2}, Transfers: 4, Forwarded: true}}},
		Seed:     1,
	}
	busy := two // ten windows: ibc-0 sends up to height 11
	busy.Workload.Windows = 10
	for _, d := range []plantedDefect{
		{
			// A refund of a received packet: the first ibc-0 commit that
			// sees a voucher minted on ibc-1 releases one escrowed token
			// behind it, as the timeout of a received packet did. The
			// verdict comes at the height of the ibc-0 block that
			// refunded, not at quiescence.
			name: "refund-of-received", spec: missedReceiptSpec(), on: 0,
			plant: func(dep *topo.Deployment, src *chain.Chain, _ int64) bool {
				var voucher denom.Trace
				dep.Chains[1].App.State().RangePrefix(app.SupplyPrefix, func(key string, _ []byte) bool {
					voucher = denom.Parse(strings.TrimPrefix(key, app.SupplyPrefix))
					return voucher.IsNative()
				})
				if voucher.IsNative() {
					return false
				}
				escrow := transfer.EscrowAccount(voucher.Hops[0].Port, dep.Links[0].Pair.ChannelAB)
				if err := src.App.Bank().Send(escrow, "refunded", app.Coin{Denom: voucher.Base, Amount: 1}); err != nil {
					panic(err)
				}
				return true
			},
			count: 1, assertion: AssertConservation, chain: "ibc-1", height: 6,
			prefix: "after ibc-0 committed height 6: voucher ",
			// Alone, the quiescent check finds the same voucher, with no
			// height; after the per-commit check it does not report it a
			// second time.
			quiescent: func(t *testing.T, v Violation, all, quiet []Violation) {
				if len(quiet) != 1 || quiet[0].Assertion != AssertConservation || quiet[0].Height != 0 {
					t.Fatalf("quiescent Check = %v, want the one conservation verdict", quiet)
				}
				if len(all) != 1 {
					t.Fatalf("check after the per-commit check = %v, want its verdict alone", all)
				}
			},
		},
		{
			// A commitment deleted before its packet is received or timed
			// out: the first ibc-0 commit that sends a packet deletes that
			// packet's commitment again. The destination then refuses that
			// packet's recv, as a proof of the commitment would fail, and
			// the relayer's one retry of the batch it rode in fails with it.
			name: "premature-deletion", spec: two, on: 0,
			plant: func(_ *topo.Deployment, c *chain.Chain, h int64) bool {
				be := c.Events.At(h)
				if be == nil || len(be.Txs) == 0 || len(be.Txs[0].Sends) == 0 {
					return false
				}
				p := be.Txs[0].Sends[0]
				commitments := ibc.PacketRecords(nil, app.Commitment, p.SourcePort, p.SourceChannel)
				c.App.State().DeleteRecord(&commitments, p.Sequence)
				return true
			},
			count: 1, assertion: AssertTimeoutRefunds, chain: "ibc-0", height: 3,
			prefix: "after ibc-0 committed height 3: commitment commitments/ports/transfer/channels/channel-0/sequences/1 deleted, but ",
			// The quiescent check sees the deleted packet settled; only
			// the watch reports it. What the quiescent check reports is
			// the rest of the refused batch, stuck in flight.
			quiescent: func(t *testing.T, v Violation, all, quiet []Violation) {
				if len(quiet) == 0 {
					t.Fatal("quiescent Check reports nothing, want the packets of the refused batch stuck")
				}
				for _, q := range quiet {
					if q.Assertion != AssertNoStuckPackets || strings.Contains(q.Detail, "packet transfer/channel-0#1 ") || !strings.Contains(q.Detail, "in flight (no receipt on ") {
						t.Fatalf("quiescent Check = %v, want only packets other than the deleted one stuck in flight", quiet)
					}
				}
				if len(all) != 1+len(quiet) || !slices.Equal(all[1:], quiet) {
					t.Fatalf("check after the per-commit check = %v, want its verdict, then the quiescent Check's", all)
				}
			},
		},
		{
			// C5's growth half: the first ibc-1 commit that writes an
			// acknowledgement deletes that packet's receipt again.
			name: "deleted-receipt", spec: two, on: 1,
			plant: func(_ *topo.Deployment, c *chain.Chain, h int64) bool {
				be := c.Events.At(h)
				if be == nil || len(be.Txs) == 0 || len(be.Txs[0].AckWrites) == 0 {
					return false
				}
				p := be.Txs[0].AckWrites[0].Packet
				receipts := ibc.PacketRecords(nil, app.Receipt, p.DestPort, p.DestChannel)
				c.App.State().DeleteRecord(&receipts, p.Sequence)
				return true
			},
			rule: "receipts only grow", count: 1, assertion: AssertTimeoutRefunds, chain: "ibc-1", height: 5,
			prefix: "after ibc-1 committed height 5: receipt receipts/ports/transfer/channels/channel-0/sequences/1 deleted: receipts only grow",
		},
		{
			// C4's settle third: the first ibc-0 commit that deletes a
			// commitment (an ack settling its packet) deletes it once more.
			name: "double-settle", spec: two, on: 0,
			plant: func(_ *topo.Deployment, c *chain.Chain, _ int64) bool {
				for _, wr := range c.App.State().Written() {
					if kind, channel := wr.Record(); kind == app.Commitment && wr.Deleted {
						commitments := ibc.PacketRecords(nil, app.Commitment, "transfer", channel)
						c.App.State().DeleteRecord(&commitments, wr.Seq)
						return true
					}
				}
				return false
			},
			rule: "settled twice", count: 1, assertion: AssertConservation, chain: "ibc-0", height: 7,
			prefix: "after ibc-0 committed height 7: commitment commitments/ports/transfer/channels/channel-0/sequences/1 deleted again: settled twice",
		},
		{
			// An ack commitment left behind: the first ibc-0 commit that
			// deletes a commitment (an ack settling its packet) stores it
			// again, with the value it had, in a block that sends nothing
			// at its sequence (C5).
			name: "ack-commitment-left-behind", spec: two, on: 0, plant: leaveCommitmentBehind(),
			count: 1, assertion: AssertNoStuckPackets, chain: "ibc-0", height: 7,
			prefix: "after ibc-0 committed height 7: commitment commitments/ports/transfer/channels/channel-0/sequences/1 stored outside the sequences this block's nextSequenceSend advanced over",
			// The quiescent check after the watch takes the packet as
			// settled, since the watch saw its commitment deleted. Check
			// alone reads the stored commitment and reports the packet
			// stuck, by the per-commit verdict's assertion.
			quiescent: func(t *testing.T, v Violation, all, quiet []Violation) {
				if len(all) != 1 || len(quiet) != 1 || quiet[0].Assertion != v.Assertion || quiet[0].Chain != v.Chain ||
					!strings.HasPrefix(quiet[0].Detail, "packet transfer/channel-0#1 stuck at deadline: received on ibc-1 but its ack never settled") {
					t.Fatalf("check after the per-commit check = %v, quiescent Check = %v; want its verdict alone, then packet #1 stuck", all, quiet)
				}
			},
		},
		{
			// The same under traffic that goes on: the block that stores
			// the commitment again sends packets of its own.
			name: "ack-commitment-left-behind-busy", spec: busy,
			on: 0, plant: leaveCommitmentBehind(),
			count: 1, assertion: AssertNoStuckPackets, chain: "ibc-0", height: 7,
			prefix: "after ibc-0 committed height 7: commitment commitments/ports/transfer/channels/channel-0/sequences/1 stored outside the sequences this block's nextSequenceSend advanced over",
		},
		{
			// C6: the first commit of the middle chain that stores a PFM
			// in-flight record deletes it again, so the hop's settlement
			// finds no record and never releases the origin's held
			// acknowledgement.
			name: "stranded-forward", spec: forwarded, on: 1,
			plant: func(_ *topo.Deployment, c *chain.Chain, _ int64) bool {
				for _, wr := range c.App.State().Written() {
					if _, _, _, ok := pfm.CutInFlightKey(wr.Key); ok && !wr.Deleted {
						c.App.State().Delete([]byte(wr.Key))
						return true
					}
				}
				return false
			},
			count: 1, assertion: AssertConservation, chain: "ibc-1", height: 5,
			prefix: "after ibc-1 committed height 5: forward record pfm/inflight/ports/transfer/channels/channel-1/sequences/1 deleted while its hop's commitment is stored",
		},
		{
			// C6's other direction: the first commit of the middle chain
			// that stores an in-flight record deletes its hop's commitment,
			// in a block that writes no in-flight key, so no ack or timeout
			// of the hop can pop the record and release the funds.
			name: "stranded-record-after-hop", spec: forwarded, on: 1,
			plant: func(_ *topo.Deployment, c *chain.Chain, _ int64) bool {
				for _, wr := range c.App.State().Written() {
					if port, channel, seq, ok := pfm.CutInFlightKey(wr.Key); ok && !wr.Deleted {
						commitments := ibc.PacketRecords(nil, app.Commitment, port, channel)
						c.App.State().DeleteRecord(&commitments, seq)
						return true
					}
				}
				return false
			},
			rule: "stays stored", count: 1, assertion: AssertConservation, chain: "ibc-1", height: 5,
			prefix: "after ibc-1 committed height 5: commitment commitments/ports/transfer/channels/channel-1/sequences/1 deleted while its forward record pfm/inflight/ports/transfer/channels/channel-1/sequences/1 stays stored",
		},
		{
			// C5's growth half: the first ibc-0 commit that sends on a
			// channel sets its next send sequence back to 1.
			name: "lowered-send-sequence", spec: two, on: 0, plant: lowerSendSequence(0),
			rule: "send sequences only grow", count: 1, assertion: AssertTimeoutRefunds, chain: "ibc-0", height: 3,
			prefix: "after ibc-0 committed height 3: nextSequenceSend/ports/transfer/channels/channel-0 fell from ",
		},
		{
			// The same defect under traffic that goes on: set back once
			// the first packets settled, ibc-0 sends sequences 1–15 again
			// in blocks 9–11. Each commitment stored is one its block
			// sent, so C5's fall at height 9 is the only verdict.
			name: "lowered-send-sequence-resent", spec: busy,
			on: 0, plant: lowerSendSequence(8),
			count: 1, assertion: AssertTimeoutRefunds, chain: "ibc-0", height: 9,
			prefix: "after ibc-0 committed height 9: nextSequenceSend/ports/transfer/channels/channel-0 fell from 36 to 6: send sequences only grow",
		},
		{
			// The sequence set back in a block whose sends take it up to
			// where it was: C5's fall is not seen at block grain, and the
			// commitments of sequences 1–5 stored again over packets still
			// in flight are.
			name: "lowered-send-sequence-reused", spec: Spec{Name: "planted", Topology: TopologySpec{Preset: "two"}, Workload: topo.Workload{Rate: 1, Windows: 4}, Seed: 1},
			on: 0, plant: lowerSendSequence(0),
			count: 5, assertion: AssertNoStuckPackets, chain: "ibc-0", height: 3,
			prefix: "after ibc-0 committed height 3: commitment commitments/ports/transfer/channels/channel-0/sequences/1 stored outside the sequences this block's nextSequenceSend advanced over",
		},
		{
			// A receipt never written, and the replay it lets through:
			// after each ibc-1 commit, the keys of the packets it
			// acknowledged are deleted again (the receipt, and the
			// acknowledgement that would refuse the second write). Relayer
			// 0 is paused while relayer 1 delivers; on resuming, its
			// clearing pass finds no receipt for the packets it missed and
			// delivers them again, and ibc-1 takes each for a first
			// delivery.
			name: "receipt-not-written",
			spec: Spec{
				Name:     "replay",
				Topology: TopologySpec{Preset: "two"},
				Deploy:   DeploySpec{RelayersPerEdge: 2, ClearIntervalBlocks: 1},
				Workload: topo.Workload{Rate: 2, Windows: 2},
				Chaos: []EventSpec{
					{At: Duration(12 * time.Second), Kind: "relayer-pause", Edge: 0, Relayer: intp(0)},
					{At: Duration(30 * time.Second), Kind: "relayer-resume", Edge: 0, Relayer: intp(0)},
				},
				Seed: 1,
			},
			on: 1, every: true,
			plant: func(_ *topo.Deployment, c *chain.Chain, h int64) bool {
				planted := false
				for _, te := range c.Events.At(h).Txs {
					for _, aw := range te.AckWrites {
						p := aw.Packet
						receipts := ibc.PacketRecords(nil, app.Receipt, p.DestPort, p.DestChannel)
						acks := ibc.PacketRecords(nil, app.Ack, p.DestPort, p.DestChannel)
						c.App.State().DeleteRecord(&receipts, p.Sequence)
						c.App.State().DeleteRecord(&acks, p.Sequence)
						planted = true
					}
				}
				return planted
			},
			rule: "acknowledged again", count: 20, assertion: AssertConservation, chain: "ibc-1", height: 8,
			prefix: "after ibc-1 committed height 8: receipt receipts/ports/transfer/channels/channel-0/sequences/11 acknowledged again: a replay was accepted",
		},
	} {
		t.Run(d.name, func(t *testing.T) { d.detect(t) })
	}
}

// leaveCommitmentBehind plants, after the first commit that deletes a
// commitment (an ack settling its packet), that commitment stored again
// with the value it had.
func leaveCommitmentBehind() func(*topo.Deployment, *chain.Chain, int64) bool {
	values := map[uint64][]byte{} // the chain's commitments, by sequence
	return func(_ *topo.Deployment, c *chain.Chain, _ int64) bool {
		st := c.App.State()
		for _, wr := range st.Written() {
			kind, channel := wr.Record()
			if kind != app.Commitment {
				continue
			}
			commitments := ibc.PacketRecords(nil, app.Commitment, "transfer", channel)
			if !wr.Deleted {
				values[wr.Seq], _ = st.GetRecord(&commitments, wr.Seq)
				continue
			}
			st.SetRecord(&commitments, wr.Seq, values[wr.Seq])
			return true
		}
		return false
	}
}

// lowerSendSequence plants, after the first commit at height from or
// above that sends, the channel's next send sequence back to 1.
func lowerSendSequence(from int64) func(*topo.Deployment, *chain.Chain, int64) bool {
	return func(_ *topo.Deployment, c *chain.Chain, h int64) bool {
		be := c.Events.At(h)
		if h < from || be == nil || len(be.Txs) == 0 || len(be.Txs[0].Sends) == 0 {
			return false
		}
		p := be.Txs[0].Sends[0]
		c.App.State().Set(ibc.AppendNextSequenceSendKey(nil, p.SourcePort, p.SourceChannel), []byte("1"))
		return true
	}
}

// detect runs the row's spec with the per-commit check and its plant,
// and checks the row's verdict.
func (d plantedDefect) detect(t *testing.T) {
	sc, dep := deployed(t, d.spec)
	c := dep.Chains[d.on]
	w := watchCommits(dep)
	planted := false
	c.Engine.OnCommit(func(cb *store.CommittedBlock) {
		if (!planted || d.every) && d.plant(dep, c, cb.Block.Header.Height) {
			c.App.State().CommitTx()
			planted = true
		}
	})
	if _, err := sc.RunOn(dep, d.spec.Seed); err != nil {
		t.Fatal(err)
	}
	if !planted {
		t.Fatalf("%s: nothing was planted", c.ID)
	}
	if last := c.Store.Height(); last <= d.height {
		t.Fatalf("%s ended at height %d: the verdict at %d was not before quiescence", c.ID, last, d.height)
	}
	var got []Violation
	for _, v := range w.out {
		if strings.Contains(v.Detail, d.rule) {
			got = append(got, v)
		}
	}
	if len(got) != d.count {
		t.Fatalf("the per-commit check reported %d violations of %q, want %d: %v", len(got), d.rule, d.count, w.out)
	}
	var v Violation // the first verdict, if the per-commit check caught the defect
	if d.count > 0 {
		if v = got[0]; v.Assertion != d.assertion || v.Chain != d.chain || v.Height != d.height || !strings.HasPrefix(v.Detail, d.prefix) {
			t.Fatalf("the per-commit check reported %+v, want %s on %s at height %d: %q", v, d.assertion, d.chain, d.height, d.prefix)
		}
	}
	all := check(dep, DefaultAssertions(), w)
	if len(all) < len(w.out) || !slices.Equal(all[:len(w.out)], w.out) {
		t.Fatalf("check after the per-commit check = %v, want it to lead with %v", all, w.out)
	}
	if d.quiescent != nil {
		d.quiescent(t, v, all, Check(dep, DefaultAssertions()))
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

// TestLostQueriesAreRequeued: a clearing relayer loses its event frames
// to a drop burst and then, in a second burst, the queries of the
// clearing pass that re-scans them. Each lost query times out into the
// pass's error branch, which puts its height back on the list, so C7
// finds no lost height and every packet settles. With that requeue
// deleted (checked on a copy of the relayer), this test fails at run
// seeds 1–3: C7 reports heights 7 and 8 of both chains after ibc-1
// commits height 35, the first commit after their queries timed out,
// and the packets of those heights end stuck.
func TestLostQueriesAreRequeued(t *testing.T) {
	burst := func(at time.Duration, drop float64) EventSpec {
		return EventSpec{At: Duration(at), Kind: "drop-burst", Edge: 0, ExtraDrop: drop}
	}
	spec := Spec{
		Name:         "lostquery",
		Topology:     TopologySpec{Preset: "two"},
		Deploy:       DeploySpec{ClearIntervalBlocks: 1},
		Workload:     topo.Workload{Rate: 20, Windows: 30},
		Chaos:        []EventSpec{burst(30*time.Second, 1), burst(36*time.Second, 0), burst(42*time.Second, 1), burst(80*time.Second, 0)},
		SettleBlocks: 40,
	}
	rep, err := Run(spec, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if done := rep.Result.Total[metrics.StatusCompleted]; done != 3000 {
		t.Fatalf("completed %d of 3000", done)
	}
}
