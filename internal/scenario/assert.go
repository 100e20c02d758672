// The invariant assertion engine: read-only checks over a quiescent
// deployment after a scenario run. Three invariants from the paper's
// safety surface are built in — voucher supply conservation across all
// zones, no permanently-stuck packets, and every elapsed timeout
// refunded — and chaos search hunts fault timelines that break them.
// Run also checks, at every commit, the rules one block can break
// (commitcheck.go), at a few table lookups per key the block wrote and
// per packet it acknowledged.
//
// All checks are state-based rather than event-based: a packet
// commitment is deleted on both acknowledgement and timeout refund, so
// a commitment remaining after the deadline is the definition of a
// stuck packet, and the escrow account balance on the counterparty
// chain is the definition of a voucher denom's backing.
package scenario

import (
	"cmp"
	"fmt"
	"slices"

	"ibcbench/internal/app"
	"ibcbench/internal/chain"
	"ibcbench/internal/ibc"
	"ibcbench/internal/ibc/denom"
	"ibcbench/internal/ibc/transfer"
	"ibcbench/internal/topo"
)

// Assertion names a spec can list; an empty list means all of them.
const (
	// AssertConservation: on every chain, the supply of every voucher
	// denom is backed by exactly that many inner-denom tokens escrowed on
	// the upstream counterparty. Supply exceeding escrow is always a
	// violation (vouchers out of thin air); escrow exceeding supply is a
	// violation once the deployment is quiescent (tokens locked forever).
	AssertConservation = "token-conservation"
	// AssertNoStuckPackets: every packet sent during the run settled —
	// its source-chain commitment was deleted by an acknowledgement or a
	// timeout refund before the deadline.
	AssertNoStuckPackets = "no-stuck-packets"
	// AssertTimeoutRefunds: every packet whose timeout elapsed without a
	// destination receipt was refunded (commitment gone). A violation
	// means escrowed or burned tokens were never returned to the sender.
	AssertTimeoutRefunds = "timeout-refunds"
)

// Violation is one failed invariant instance.
type Violation struct {
	Assertion string `json:"assertion"`
	// Chain anchors the violation (the voucher chain for conservation,
	// the packet source for stuck/timeout).
	Chain  string `json:"chain"`
	Detail string `json:"detail"`
	// Height is, for a violation found at a commit, the height of the
	// block whose commit showed it, on the chain Detail names first; 0
	// for one found at quiescence.
	Height int64 `json:"height,omitempty"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s [%s]: %s", v.Assertion, v.Chain, v.Detail)
}

// Check runs the named assertions (nil = DefaultAssertions) over a
// finished deployment and returns every violation in deterministic
// order: packet checks first in chain/send order, then conservation in
// chain/denom order. It fills a commit watch's in-flight packets from
// the event index and classifies what is left.
func Check(d *topo.Deployment, names []string) []Violation {
	return check(d, names, nil)
}

// check is Check after a run whose commits w watched (nil if none): w's
// verdicts lead, in the order found, and a voucher it reported is not
// reported again at quiescence.
func check(d *topo.Deployment, names []string, w *commitWatch) []Violation {
	if len(names) == 0 {
		names = DefaultAssertions()
	}
	if w == nil {
		w = newCommitWatch(d)
		for _, c := range d.Chains {
			for h := int64(1); h <= c.Events.Height(); h++ {
				w.addSends(c, h)
			}
		}
	}
	type stuckPacket struct {
		Violation
		chain, ord int
	}
	// Once a packet is stuck the deployment is not quiescent, and with
	// no packet assertion named nothing more is classified.
	var stuck []stuckPacket
	quiescent := true
	packets := slices.Contains(names, AssertNoStuckPackets) || slices.Contains(names, AssertTimeoutRefunds)
	for at, e := range w.ends { // order-free: sorted into chain/send order below
		for _, f := range e.flight {
			if f.p == nil || !quiescent && !packets {
				continue
			}
			if assertion, detail := classify(at.chain, e.side.chain, f.p); assertion != "" {
				quiescent = false
				stuck = append(stuck, stuckPacket{Violation{Assertion: assertion, Chain: at.chain.ID, Detail: detail}, slices.Index(d.Chains, at.chain), f.ord})
			}
		}
	}
	slices.SortFunc(stuck, func(a, b stuckPacket) int { return cmp.Or(cmp.Compare(a.chain, b.chain), cmp.Compare(a.ord, b.ord)) })
	var out []Violation
	for _, v := range w.out {
		if slices.Contains(names, v.Assertion) {
			out = append(out, v)
		}
	}
	for _, v := range stuck {
		if slices.Contains(names, v.Assertion) {
			out = append(out, v.Violation)
		}
	}
	if slices.Contains(names, AssertConservation) {
		out = append(out, checkConservation(d, w, quiescent)...)
	}
	return out
}

// classify checks one packet left in flight from src to dst (nil on an
// unknown channel) at quiescence, and returns the assertion it breaks
// and why: none if its commitment is gone after all, acked or refunded
// in a block no commit hook saw.
func classify(src, dst *chain.Chain, p *ibc.Packet) (assertion, detail string) {
	var b [app.KeyBufLen]byte
	if r := ibc.PacketRecords(b[:0], app.Commitment, p.SourcePort, p.SourceChannel); !src.App.State().HasRecord(&r, p.Sequence) {
		return "", ""
	}
	id := fmt.Sprintf("packet %s/%s#%d", p.SourcePort, p.SourceChannel, p.Sequence)
	receipts := ibc.PacketRecords(b[:0], app.Receipt, p.DestPort, p.DestChannel)
	switch {
	case dst == nil:
		return AssertNoStuckPackets, id + " sent on unknown channel"
	case dst.App.State().HasRecord(&receipts, p.Sequence):
		return AssertNoStuckPackets, id + " stuck at deadline: received on " + dst.ID + " but its ack never settled"
	case dst.TimeoutElapsed(p):
		return AssertTimeoutRefunds, fmt.Sprintf("%s timed out (height %d/time %v elapsed on %s) but was never refunded",
			id, p.TimeoutHeight, p.TimeoutTimestamp, dst.ID)
	}
	return AssertNoStuckPackets, id + " stuck at deadline: in flight (no receipt on " + dst.ID + ")"
}

// checkConservation verifies every voucher denom's backing. quiescent
// marks that no packet is in flight, so supply and escrow must agree
// exactly; with traffic still stuck mid-link only over-minting (supply
// above escrow) is provably wrong. A voucher w reported over-minted at a
// commit is skipped.
func checkConservation(d *topo.Deployment, w *commitWatch, quiescent bool) []Violation {
	var out []Violation
	for _, c := range d.Chains {
		c.App.State().RangePrefix(app.SupplyPrefix, func(key string, _ []byte) bool {
			dn := key[len(app.SupplyPrefix):]
			if detail, over := voucherVerdict(c, dn, w, quiescent); detail != "" && !(over && w.minted[c.ID+" "+dn]) {
				out = append(out, Violation{Assertion: AssertConservation, Chain: c.ID, Detail: detail})
			}
			return true
		})
	}
	return out
}

// voucherVerdict checks the backing of denom dn on c, if it is a
// voucher: inner tokens escrowed on the counterparty its outermost hop
// names, by the escrow account of the hop's port and the counterparty's
// end of the channel. It returns why the backing is wrong ("" if it is
// not): supply above escrow (over), or escrow above supply once
// quiescent.
func voucherVerdict(c *chain.Chain, dn string, w *commitWatch, quiescent bool) (detail string, over bool) {
	trace := denom.Parse(dn)
	if trace.IsNative() {
		// Native supply is not conserved by construction: account
		// bootstrap mints balances on first use.
		return "", false
	}
	supply := c.App.Bank().Supply(dn)
	hop := trace.Hops[0]
	e := w.ends[chanEnd{c, hop.Channel}]
	if e == nil || e.side.chain == nil {
		return fmt.Sprintf("voucher %s references unknown channel %s (supply %d)", dn, hop.Channel, supply), false
	}
	inner, on := denom.Trace{Hops: trace.Hops[1:], Base: trace.Base}.String(), e.side.chain
	escrow := on.App.Bank().Balance(transfer.EscrowAccount(hop.Port, e.side.channel), inner)
	switch {
	case supply > escrow:
		return fmt.Sprintf("voucher %s supply %d exceeds the %d escrowed as %s on %s",
			dn, supply, escrow, inner, on.ID), true
	case quiescent && escrow > supply:
		return fmt.Sprintf("quiescent but %d %s stay escrowed on %s against a voucher supply of only %d %s",
			escrow, inner, on.ID, supply, dn), false
	}
	return "", false
}
