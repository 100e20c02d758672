package scenario

import (
	"fmt"
	"strconv"
	"strings"

	"ibcbench/internal/app"
	"ibcbench/internal/chain"
	"ibcbench/internal/ibc"
	"ibcbench/internal/ibc/pfm"
	"ibcbench/internal/ibc/transfer"
	"ibcbench/internal/relayer"
	"ibcbench/internal/tendermint/store"
	"ibcbench/internal/topo"
)

// commitWatch checks, after every commit, the rules one block can break,
// at the height that breaks them. It reads only the keys and packet
// records the block wrote (app.State.Written, which says whether each
// was left deleted) and the packets it sent and acknowledged, and reads
// a value back only for a nextSequenceSend key, and the forward record
// of each commitment deleted: a commit costs a few table lookups per key
// written and per packet event, however many packets are in flight.
//
//   - C3, conservation's over-minting half: a block that writes a
//     voucher's supply, or the escrow behind it, re-checks that voucher
//     by Check's rule (escrow above supply is a verdict only at
//     quiescence: in flight, a token is escrowed before it is minted).
//   - C4, exactly-once receipt: a chain acknowledges each packet it
//     receives once, so a second write_acknowledgement for one sequence
//     means a replay was accepted, its tokens delivered twice (a
//     conservation verdict). Its settle third: a commitment is deleted
//     once, by one ack or one timeout, so a deletion of a packet that
//     already settled paid out twice (a conservation verdict too).
//   - C5, commitments and receipts only move forward (a timeout-refunds
//     verdict): a commitment is deleted only once the destination has
//     acknowledged the packet or its latest header meets the timeout
//     (the rule MsgTimeout applies), a receipt is never deleted, and
//     nextSequenceSend never falls. A block stores no commitment it did
//     not send; one left behind is stuck (no-stuck-packets, as in Check).
//   - C6, a forward record lives exactly as long as its hop: the
//     transaction that sends a forwarded packet's next hop stores its
//     PFM in-flight record, and the one that settles the hop pops it, so
//     a block leaves an in-flight key it wrote stored exactly when the
//     hop's commitment is, and a block that deletes a hop's commitment
//     leaves no in-flight record of it. Otherwise the forwarded funds sit
//     in the forwarding account with no hop to release them (a
//     conservation verdict).
//   - C7, a clearing relayer loses no missed height: every height it
//     queued for a clearing pass is re-scanned (processed, or answered
//     that the node has no such height), queried now, or still queued
//     with a pass pending (relayer.LostHeights). A lost height's packets
//     are never relayed by it (a no-stuck-packets verdict). A relayer
//     that does not clear is exempt, and so is one while it is stopped.
//
// A packet stays in flight until the block that deletes its commitment,
// so at quiescence the flight tables hold what Check classifies; Check
// without a watch fills them from the event index.
type commitWatch struct {
	ends   map[chanEnd]*endWatch
	minted map[string]bool // "chain-ID denom" of each voucher C3 reported
	sent   int             // packets sent so far, for send order
	out    []Violation     // every per-commit verdict, in the order found
	links  []*topo.Link
	lost   map[*relayer.Relayer]bool // each relayer C7 reported
}

// chanEnd names one channel end; channel ids are per-chain ordinals.
type chanEnd struct {
	chain   *chain.Chain
	channel string
}

// endWatch is what the checks keep about one channel end.
type endWatch struct {
	side chanEnd // the counterparty end; no chain if no link deployed it
	// flight holds the packets sent here whose commitment is stored, row i
	// for sequence base+i: sequences are dense, so no map is needed.
	flight   []inFlight
	base     uint64
	received seqSet // sequences acknowledged here
	nextSend uint64 // the last nextSequenceSend value seen
	sentFrom uint64 // the value before it: its block sent sentFrom to nextSend-1
	sentAt   int64  // the height of that block
}

// inFlight is one sent packet and its place in send order.
type inFlight struct {
	p   *ibc.Packet
	ord int
}

// send puts f in flight, after dropping the leading settled rows. A
// sequence below the table, sent again after nextSequenceSend fell
// (which C5 reports), is left out.
func (e *endWatch) send(f inFlight) {
	for len(e.flight) > 0 && e.flight[0].p == nil {
		e.flight, e.base = e.flight[1:], e.base+1
	}
	if len(e.flight) == 0 {
		e.base = f.p.Sequence
	}
	for f.p.Sequence >= e.base+uint64(len(e.flight)) {
		e.flight = append(e.flight, inFlight{})
	}
	if i := f.p.Sequence - e.base; i < uint64(len(e.flight)) {
		e.flight[i] = f
	}
}

func newCommitWatch(d *topo.Deployment) *commitWatch {
	w := &commitWatch{ends: make(map[chanEnd]*endWatch, 2*len(d.Links)), minted: make(map[string]bool), links: d.Links}
	for _, l := range d.Links {
		p := l.Pair
		w.ends[chanEnd{p.A, p.ChannelAB}] = &endWatch{side: chanEnd{p.B, p.ChannelBA}}
		w.ends[chanEnd{p.B, p.ChannelBA}] = &endWatch{side: chanEnd{p.A, p.ChannelAB}}
	}
	return w
}

// end returns c's end of channel, adding an undeployed one on first use.
func (w *commitWatch) end(c *chain.Chain, channel string) *endWatch {
	e := w.ends[chanEnd{c, channel}]
	if e == nil {
		e = &endWatch{}
		w.ends[chanEnd{c, channel}] = e
	}
	return e
}

// watchCommits attaches the checks to every chain of a deployment before
// it runs.
func watchCommits(d *topo.Deployment) *commitWatch {
	w := newCommitWatch(d)
	for _, c := range d.Chains {
		c.Engine.OnCommit(func(cb *store.CommittedBlock) {
			w.commit(c, cb.Block.Header.Height)
			w.checkClearing(c, cb.Block.Header.Height)
		})
	}
	return w
}

// addSends puts in flight the packets c's block at height h sent whose
// commitment is still stored: one already acked or refunded has settled.
func (w *commitWatch) addSends(c *chain.Chain, h int64) {
	var b [app.KeyBufLen]byte
	for _, te := range c.Events.At(h).Txs {
		for _, p := range te.Sends {
			if r := ibc.PacketRecords(b[:0], app.Commitment, p.SourcePort, p.SourceChannel); c.App.State().HasRecord(&r, p.Sequence) {
				w.end(c, p.SourceChannel).send(inFlight{p, w.sent})
			}
			w.sent++
		}
	}
}

// commit checks the packets c's block at height h acknowledged (a
// repeat is C4's verdict) and every key and packet record it wrote. A
// record write names its kind, channel and sequence, and whether it left
// the record deleted, so only a nextSequenceSend key and a settled
// hop's forward record are read back; a verdict's key text is spelled
// only when it is reported.
func (w *commitWatch) commit(c *chain.Chain, h int64) {
	start := w.sent
	w.addSends(c, h)
	for _, te := range c.Events.At(h).Txs {
		for _, aw := range te.AckWrites {
			if p := &aw.Packet; w.end(c, p.DestChannel).received.add(p.Sequence) {
				w.report(c, h, c, AssertConservation, "receipt %s acknowledged again: a replay was accepted",
					strconv.AppendUint(ibc.PacketRecords(nil, app.Receipt, p.DestPort, p.DestChannel).Prefix, p.Sequence, 10))
			}
		}
	}
	st := c.App.State()
	var b [app.KeyBufLen]byte
	for _, wr := range st.Written() {
		switch kind, channel := wr.Record(); kind {
		case app.Commitment:
			e := w.end(c, channel)
			if !wr.Deleted {
				// Only a send stores one (its nextSequenceSend key came first).
				if e.sentAt != h || wr.Seq < e.sentFrom || wr.Seq >= e.nextSend {
					w.report(c, h, c, AssertNoStuckPackets, "commitment %s stored outside the sequences this block's nextSequenceSend advanced over, so no send stored it: a commitment left behind never settles", wr.AppendKey(nil))
				}
				continue
			}
			// A packet sent before this block settles. Its destination
			// must have acknowledged it, in a block the watch saw (the
			// relayer learns of it only after), or reached the timeout.
			// One that settled already (a cleared row, or below the
			// table: seq-base wraps past its length) settles twice; the
			// keeper refuses an ack or timeout of an absent commitment.
			i := wr.Seq - e.base
			if i >= uint64(len(e.flight)) || e.flight[i].p == nil {
				if wr.Seq < e.base || i < uint64(len(e.flight)) {
					w.report(c, h, c, AssertConservation, "commitment %s deleted again: settled twice (ack and timeout, or two of either)", wr.AppendKey(nil))
				}
				continue
			}
			p, dst := e.flight[i].p, e.side.chain
			k := pfm.AppendInFlightKey(b[:0], p.SourcePort, p.SourceChannel, p.Sequence)
			if _, stored := st.Get(k); stored {
				w.report(c, h, c, AssertConservation, "commitment %s deleted while its forward record %s stays stored: the forwarded funds are stranded", wr.AppendKey(nil), k)
			}
			if e.flight[i].ord >= start {
				continue
			}
			e.flight[i] = inFlight{}
			if dst != nil && !w.ends[e.side].received.has(wr.Seq) && !dst.TimeoutElapsed(p) {
				w.report(c, h, c, AssertTimeoutRefunds, "commitment %s deleted, but %s has not acknowledged it and is at height %d, short of the timeout (height %d/time %v)",
					wr.AppendKey(nil), dst.ID, dst.Store.Height(), p.TimeoutHeight, p.TimeoutTimestamp)
			}
		case app.Receipt:
			if wr.Deleted {
				w.report(c, h, c, AssertTimeoutRefunds, "receipt %s deleted: receipts only grow", wr.AppendKey(nil))
			}
		case app.NoRecord:
			k := wr.Key
			if dn, ok := strings.CutPrefix(k, app.SupplyPrefix); ok {
				w.checkVoucher(c, h, c, dn)
			} else if port, channel, inner, ok := transfer.CutEscrowBalanceKey(k); ok {
				if end := w.ends[chanEnd{c, channel}]; end != nil && end.side.chain != nil {
					w.checkVoucher(c, h, end.side.chain, port+"/"+end.side.channel+"/"+inner)
				}
			} else if kind, channel, _, ok := ibc.CutPacketKey(k); ok && kind == "nextSequenceSend" {
				e := w.end(c, channel)
				raw, _ := st.Get([]byte(k))
				next, _ := strconv.ParseUint(string(raw), 10, 64)
				if next < e.nextSend {
					w.report(c, h, c, AssertTimeoutRefunds, "%s fell from %d to %d: send sequences only grow", k, e.nextSend, next)
					e.nextSend = 0 // any sequence below next may be resent
				}
				e.sentFrom, e.sentAt, e.nextSend = e.nextSend, h, next
			} else if port, channel, seq, ok := pfm.CutInFlightKey(k); ok {
				r := ibc.PacketRecords(b[:0], app.Commitment, port, channel)
				if committed := st.HasRecord(&r, seq); committed && wr.Deleted {
					w.report(c, h, c, AssertConservation, "forward record %s deleted while its hop's commitment is stored: settling the hop releases nothing", k)
				} else if !committed && !wr.Deleted {
					w.report(c, h, c, AssertConservation, "forward record %s stored without its hop's commitment: the forwarded funds are stranded", k)
				}
			}
		}
	}
}

// checkClearing reports, after c's commit at height h, the missed
// heights a relayer has lost (C7), at the first commit that shows any.
func (w *commitWatch) checkClearing(c *chain.Chain, h int64) {
	for _, l := range w.links {
		for i := 0; i <= len(l.Relayers); i++ {
			r := l.Standby // the last ordinal
			if i < len(l.Relayers) {
				r = l.Relayers[i]
			}
			if r == nil || w.lost[r] {
				continue
			}
			for _, on := range [2]*chain.Chain{l.Pair.A, l.Pair.B} {
				for _, lost := range r.LostHeights(on.ID) {
					if w.lost == nil {
						w.lost = make(map[*relayer.Relayer]bool)
					}
					w.lost[r] = true
					w.report(c, h, on, AssertNoStuckPackets, "relayer %s lost missed height %d of %s: not re-scanned, not queried and not queued for a pending clearing pass", r.Name(), lost, on.ID)
				}
			}
		}
	}
}

// report records a verdict on chain on, after c's commit at height h.
func (w *commitWatch) report(c *chain.Chain, h int64, on *chain.Chain, assertion, format string, args ...any) {
	w.out = append(w.out, Violation{Assertion: assertion, Chain: on.ID, Height: h,
		Detail: fmt.Sprintf("after %s committed height %d: ", c.ID, h) + fmt.Sprintf(format, args...)})
}

// checkVoucher re-checks voucher dn on v after c's commit at height h
// wrote its supply or its escrow, and reports it over-minted once.
func (w *commitWatch) checkVoucher(c *chain.Chain, h int64, v *chain.Chain, dn string) {
	if detail, over := voucherVerdict(v, dn, w, false); over && !w.minted[v.ID+" "+dn] {
		w.minted[v.ID+" "+dn] = true
		w.report(c, h, v, AssertConservation, "%s", detail)
	}
}

// seqSet holds a set of one channel end's sequences: all up to lo, and
// lo+1+i for each bit i of bits. Packets are acknowledged roughly in
// sequence, so the set keeps about a word per 64 sequences out of order.
type seqSet struct {
	lo   uint64
	bits []uint64
}

// has reports whether seq is in the set.
func (a *seqSet) has(seq uint64) bool {
	i := seq - a.lo - 1
	return seq <= a.lo || i/64 < uint64(len(a.bits)) && a.bits[i/64]&(1<<(i%64)) != 0
}

// add puts seq in the set and reports whether it was there already.
func (a *seqSet) add(seq uint64) bool {
	if a.has(seq) {
		return true
	}
	i := seq - a.lo - 1
	for uint64(len(a.bits)) <= i/64 {
		a.bits = append(a.bits, 0)
	}
	a.bits[i/64] |= 1 << (i % 64)
	for len(a.bits) > 0 && a.bits[0] == ^uint64(0) {
		a.bits, a.lo = a.bits[1:], a.lo+64
	}
	return false
}
