package scenario

import (
	"fmt"

	"ibcbench/internal/chain"
	"ibcbench/internal/ibc"
	"ibcbench/internal/ibc/transfer"
	"ibcbench/internal/tendermint/store"
	"ibcbench/internal/topo"
)

// conservationWatch checks supply against escrow at every commit:
// AssertConservation's over-minting half applied after each block of a
// serial deployment instead of once at quiescence, so a voucher minted
// without backing, or backing released under a live voucher, is
// reported at the height that did it. Escrow above supply stays a
// quiescence-only verdict (Check): in flight, a token is escrowed before
// its voucher is minted.
//
// The vouchers it compares are learned from the packets sent: every
// voucher a chain mints is the ReceivedDenom of a packet sent to it, and
// a burned voucher re-minted by a refund was minted that way first. So a
// commit costs two balance reads per voucher, not a scan of the state.
type conservationWatch struct {
	sides    map[string]linkSide
	vouchers []watchedVoucher
	index    map[voucherOn]int // into vouchers
	out      []Violation
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

// watchConservation attaches the check to every chain of a deployment
// before it runs. Only a serial deployment may have it: a hook reads other chains'
// banks, which under the parallel runner belong to other workers.
func watchConservation(d *topo.Deployment) *conservationWatch {
	w := &conservationWatch{sides: linkSides(d), index: make(map[voucherOn]int)}
	for _, c := range d.Chains {
		c.Engine.OnCommit(func(cb *store.CommittedBlock) { w.commit(c, cb.Block.Header.Height) })
	}
	return w
}

// commit learns the vouchers c's block at height h can mint, then checks
// every voucher known so far that has not yet been reported.
func (w *conservationWatch) commit(c *chain.Chain, h int64) {
	if be := c.Events.At(h); be != nil {
		for _, te := range be.Txs {
			for _, p := range te.Sends {
				w.learn(c, p)
			}
		}
	}
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

// learn records the voucher packet p, sent from src, mints on its
// destination, unless it carries its token home or cannot be decoded.
func (w *conservationWatch) learn(src *chain.Chain, p *ibc.Packet) {
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
func (w *conservationWatch) reported(c *chain.Chain, dn string) bool {
	if w == nil {
		return false
	}
	i, ok := w.index[voucherOn{c, dn}]
	return ok && w.vouchers[i].reported
}
