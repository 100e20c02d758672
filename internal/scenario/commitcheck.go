package scenario

import (
	"fmt"

	"ibcbench/internal/app"
	"ibcbench/internal/chain"
	"ibcbench/internal/ibc"
	"ibcbench/internal/ibc/transfer"
	"ibcbench/internal/tendermint/store"
	"ibcbench/internal/topo"
)

// commitWatch checks three rules after every commit of a serial
// deployment, each at the height that breaks it rather than once at
// quiescence.
//
// C3 is AssertConservation's over-minting half: a voucher minted
// without backing, or backing released under a live voucher. Escrow
// above supply stays a quiescence-only verdict (Check): in flight, a
// token is escrowed before its voucher is minted. The vouchers it
// compares are learned from the packets sent: every voucher a chain
// mints is the ReceivedDenom of a packet sent to it, and a burned
// voucher re-minted by a refund was minted that way first. So a commit
// costs two balance reads per voucher, not a scan of the state.
//
// C5 is the deletion half of "commitments and receipts only move
// forward": a packet's source commitment may disappear only once the
// destination holds its receipt (an ack) or the destination's latest
// committed header meets its timeout (a refund, by the rule MsgTimeout
// applies). A commit costs one state read per packet still in flight
// from the committing chain. A violation is an AssertTimeoutRefunds
// verdict: the packet's tokens were returned, or lost, on no proof.
//
// C4 is the receive third of "exactly once": a chain writes one
// acknowledgement per packet it receives, so every write_acknowledgement
// record of a committed block names a (destination channel, sequence)
// the chain never acknowledged before. A repeat means a replay was
// accepted and its tokens delivered twice, an AssertConservation
// verdict. A commit costs one set lookup per acknowledgement written.
type commitWatch struct {
	sides    map[string]linkSide
	vouchers []watchedVoucher
	index    map[voucherOn]int // into vouchers
	out      []Violation       // C3's and C4's verdicts, in the order found
	// acked maps each packet a chain acknowledged to the height it did.
	acked map[ackedOn]int64
	// inFlight holds each chain's sent packets whose commitment was
	// stored at its last commit.
	inFlight map[*chain.Chain][]*ibc.Packet
	deleted  []Violation // C5's verdicts
}

// ackedOn names one received packet on the chain that received it.
type ackedOn struct {
	chain    *chain.Chain
	channel  string
	sequence uint64
}

// voucherOn names a voucher denom on the chain that mints it.
type voucherOn struct {
	chain *chain.Chain
	denom string
}

// watchedVoucher is one voucher and the escrow behind it: inner held by
// escrowAccount on the counterparty, the chain its outermost hop names.
type watchedVoucher struct {
	voucherOn
	inner         string
	counterparty  *chain.Chain
	escrowAccount string
	reported      bool
}

// watchCommits attaches the checks to every chain of a deployment before
// it runs.
func watchCommits(d *topo.Deployment) *commitWatch {
	w := &commitWatch{
		sides:    linkSides(d),
		index:    make(map[voucherOn]int),
		acked:    make(map[ackedOn]int64),
		inFlight: make(map[*chain.Chain][]*ibc.Packet),
	}
	for _, c := range d.Chains {
		c.Engine.OnCommit(func(cb *store.CommittedBlock) { w.commit(c, cb.Block.Header.Height) })
	}
	return w
}

// commit learns the packets c's block at height h sent and the vouchers
// they can mint, checks the acknowledgements it wrote and the deletions
// of c's in-flight commitments, then checks every voucher known so far
// that has not yet been reported.
func (w *commitWatch) commit(c *chain.Chain, h int64) {
	if be := c.Events.At(h); be != nil {
		for _, te := range be.Txs {
			for _, p := range te.Sends {
				w.learn(c, p)
				w.inFlight[c] = append(w.inFlight[c], p)
			}
			for _, aw := range te.AckWrites {
				w.ackedOnce(c, h, &aw.Packet)
			}
		}
	}
	w.settle(c, h)
	for i := range w.vouchers {
		v := &w.vouchers[i]
		if v.reported {
			continue
		}
		supply := v.chain.App.Bank().Supply(v.denom)
		escrow := v.counterparty.App.Bank().Balance(v.escrowAccount, v.inner)
		if supply > escrow {
			v.reported = true
			w.out = append(w.out, Violation{
				Assertion: AssertConservation,
				Chain:     v.chain.ID,
				Height:    h,
				Detail: fmt.Sprintf("after %s committed height %d: voucher %s supply %d exceeds the %d escrowed as %s on %s",
					c.ID, h, v.denom, supply, escrow, v.inner, v.counterparty.ID),
			})
		}
	}
}

// ackedOnce records that c acknowledged p at height h, and reports it
// if c had acknowledged p before.
func (w *commitWatch) ackedOnce(c *chain.Chain, h int64, p *ibc.Packet) {
	key := ackedOn{c, p.DestChannel, p.Sequence}
	first, ok := w.acked[key]
	if !ok {
		w.acked[key] = h
		return
	}
	var b [app.KeyBufLen]byte
	w.out = append(w.out, Violation{
		Assertion: AssertConservation,
		Chain:     c.ID,
		Height:    h,
		Detail: fmt.Sprintf("after %s committed height %d: receipt %s acknowledged again (first at height %d): a replay was accepted",
			c.ID, h, ibc.AppendPacketReceiptKey(b[:0], p.DestPort, p.DestChannel, p.Sequence), first),
	})
}

// settle drops from c's in-flight packets each one whose commitment is
// gone at height h, and reports it when the destination neither holds its
// receipt nor has reached its timeout.
func (w *commitWatch) settle(c *chain.Chain, h int64) {
	var b, rb [app.KeyBufLen]byte
	pending := w.inFlight[c]
	live := pending[:0]
	for _, p := range pending {
		key := ibc.AppendPacketCommitmentKey(b[:0], p.SourcePort, p.SourceChannel, p.Sequence)
		if c.App.State().Has(key) {
			live = append(live, p)
			continue
		}
		side, ok := w.sides[c.ID+"/"+p.SourceChannel]
		if !ok {
			continue // Check reports a packet on an unknown channel
		}
		dst := side.counterparty
		if dst.App.State().Has(ibc.AppendPacketReceiptKey(rb[:0], p.DestPort, p.DestChannel, p.Sequence)) || timeoutElapsed(p, dst) {
			continue
		}
		w.deleted = append(w.deleted, Violation{
			Assertion: AssertTimeoutRefunds,
			Chain:     c.ID,
			Height:    h,
			Detail: fmt.Sprintf("after %s committed height %d: commitment %s deleted, but %s holds no receipt and is at height %d, short of the timeout (height %d/time %v)",
				c.ID, h, key, dst.ID, dst.Store.Height(), p.TimeoutHeight, p.TimeoutTimestamp),
		})
	}
	clear(pending[len(live):])
	w.inFlight[c] = live
}

// learn records the voucher packet p, sent from src, mints on its
// destination, unless it carries its token home or cannot be decoded.
func (w *commitWatch) learn(src *chain.Chain, p *ibc.Packet) {
	data, err := transfer.ParsePacketData(p.Data)
	if err != nil {
		return
	}
	dn, home := transfer.ReceivedDenom(*p, data.Denom)
	out, ok := w.sides[src.ID+"/"+p.SourceChannel]
	if home || !ok {
		return
	}
	key := voucherOn{out.counterparty, dn}
	if _, ok := w.index[key]; ok {
		return
	}
	w.index[key] = len(w.vouchers)
	// Check's rule for the escrow behind a voucher: named by the
	// voucher's hop port and the sender's end of the channel.
	w.vouchers = append(w.vouchers, watchedVoucher{
		voucherOn:     key,
		inner:         data.Denom,
		counterparty:  src,
		escrowAccount: transfer.EscrowAccount(p.DestPort, p.SourceChannel),
	})
}

// reported tells whether w already reported voucher dn on c.
func (w *commitWatch) reported(c *chain.Chain, dn string) bool {
	if w == nil {
		return false
	}
	i, ok := w.index[voucherOn{c, dn}]
	return ok && w.vouchers[i].reported
}
