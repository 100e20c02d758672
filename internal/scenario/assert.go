// The invariant assertion engine: read-only checks over a quiescent
// deployment after a scenario run. Three invariants from the paper's
// safety surface are built in — voucher supply conservation across all
// zones, no permanently-stuck packets, and every elapsed timeout
// refunded — and chaos search hunts fault timelines that break them.
//
// All checks are state-based rather than event-based: a packet
// commitment is deleted on both acknowledgement and timeout refund, so
// a commitment remaining after the deadline is the definition of a
// stuck packet, and the escrow account balance on the counterparty
// chain is the definition of a voucher denom's backing.
package scenario

import (
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

func knownAssertion(name string) bool {
	switch name {
	case AssertConservation, AssertNoStuckPackets, AssertTimeoutRefunds:
		return true
	}
	return false
}

// Violation is one failed invariant instance.
type Violation struct {
	Assertion string `json:"assertion"`
	// Chain anchors the violation (the voucher chain for conservation,
	// the packet source for stuck/timeout).
	Chain  string `json:"chain"`
	Detail string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s [%s]: %s", v.Assertion, v.Chain, v.Detail)
}

// Check runs the named assertions (nil = DefaultAssertions) over a
// finished deployment and returns every violation in deterministic
// order: packet checks first in chain/send order, then conservation in
// chain/denom order.
func Check(d *topo.Deployment, names []string) []Violation {
	if len(names) == 0 {
		names = DefaultAssertions()
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	sides := linkSides(d)
	var out []Violation
	stuck := 0
	eachSent(d, func(src *chain.Chain, p *ibc.Packet) {
		v, isStuck := classify(src, p, sides)
		if isStuck {
			stuck++
		}
		if v != nil && want[v.Assertion] {
			out = append(out, *v)
		}
	})
	if want[AssertConservation] {
		out = append(out, checkConservation(d, sides, stuck == 0)...)
	}
	return out
}

// linkSide resolves one (chain, channel) endpoint to its counterparty.
type linkSide struct {
	counterparty *chain.Chain
	// counterpartyChannel is the channel id of the same link on the
	// counterparty chain — where the escrow backing this side's vouchers
	// lives.
	counterpartyChannel string
}

// linkSides indexes every deployed channel endpoint. Channel ids are
// per-chain ordinals, so (chain ID, channel) is unique.
func linkSides(d *topo.Deployment) map[string]linkSide {
	sides := make(map[string]linkSide, 2*len(d.Links))
	for _, l := range d.Links {
		p := l.Pair
		sides[p.A.ID+"/"+p.ChannelAB] = linkSide{counterparty: p.B, counterpartyChannel: p.ChannelBA}
		sides[p.B.ID+"/"+p.ChannelBA] = linkSide{counterparty: p.A, counterpartyChannel: p.ChannelAB}
	}
	return sides
}

// eachSent walks every chain's event index in block order and hands fn
// every packet sent during the run — workload transfers, route legs, and
// middleware-emitted forward hops alike. Within a transaction, channels
// go in name order.
func eachSent(d *topo.Deployment, fn func(src *chain.Chain, p *ibc.Packet)) {
	var channels []string
	for _, c := range d.Chains {
		for h := int64(1); h <= c.Events.Height(); h++ {
			be := c.Events.At(h)
			if be == nil {
				continue
			}
			for _, te := range be.Txs {
				channels = channels[:0]
				for ch := range te.Sends {
					channels = append(channels, ch)
				}
				slices.Sort(channels)
				for _, ch := range channels {
					sends := te.Sends[ch]
					for i := range sends {
						fn(c, &sends[i])
					}
				}
			}
		}
	}
}

// classify checks one sent packet's settlement. It returns a violation
// (or nil) plus whether the packet is stuck — its commitment survived
// to the deadline — which feeds the conservation quiescence test.
func classify(src *chain.Chain, p *ibc.Packet, sides map[string]linkSide) (*Violation, bool) {
	var b [app.KeyBufLen]byte
	if !src.App.State().Has(ibc.AppendPacketCommitmentKey(b[:0], p.SourcePort, p.SourceChannel, p.Sequence)) {
		return nil, false // acked or refunded — settled either way
	}
	side, ok := sides[src.ID+"/"+p.SourceChannel]
	if !ok {
		return &Violation{
			Assertion: AssertNoStuckPackets,
			Chain:     src.ID,
			Detail:    fmt.Sprintf("packet %s/%s#%d sent on unknown channel", p.SourcePort, p.SourceChannel, p.Sequence),
		}, true
	}
	dst := side.counterparty
	received := dst.App.State().Has(ibc.AppendPacketReceiptKey(b[:0], p.DestPort, p.DestChannel, p.Sequence))
	if !received && timeoutElapsed(p, dst) {
		return &Violation{
			Assertion: AssertTimeoutRefunds,
			Chain:     src.ID,
			Detail: fmt.Sprintf("packet %s/%s#%d timed out (height %d/time %v elapsed on %s) but was never refunded",
				p.SourcePort, p.SourceChannel, p.Sequence, p.TimeoutHeight, p.TimeoutTimestamp, dst.ID),
		}, true
	}
	state := "in flight (no receipt on " + dst.ID + ")"
	if received {
		state = "received on " + dst.ID + " but its ack never settled"
	}
	return &Violation{
		Assertion: AssertNoStuckPackets,
		Chain:     src.ID,
		Detail: fmt.Sprintf("packet %s/%s#%d stuck at deadline: %s",
			p.SourcePort, p.SourceChannel, p.Sequence, state),
	}, true
}

// timeoutElapsed reports whether the packet's timeout passed on the
// destination chain — the condition under which a relayer could prove
// the timeout and trigger the refund.
func timeoutElapsed(p *ibc.Packet, dst *chain.Chain) bool {
	if p.TimeoutHeight > 0 && dst.Store.Height() >= p.TimeoutHeight {
		return true
	}
	if p.TimeoutTimestamp > 0 {
		if be := dst.Events.At(dst.Events.Height()); be != nil && be.BlockTime >= p.TimeoutTimestamp {
			return true
		}
	}
	return false
}

// checkConservation verifies every voucher denom's backing. quiescent
// marks that no packet is in flight, so supply and escrow must agree
// exactly; with traffic still stuck mid-link only over-minting (supply
// above escrow) is provably wrong.
func checkConservation(d *topo.Deployment, sides map[string]linkSide, quiescent bool) []Violation {
	var out []Violation
	const supplyPrefix = "supply/"
	for _, c := range d.Chains {
		c.App.State().RangePrefix(supplyPrefix, func(key string, _ []byte) bool {
			dn := key[len(supplyPrefix):]
			trace := denom.Parse(dn)
			if trace.IsNative() {
				// Native supply is not conserved by construction: account
				// bootstrap mints balances on first use.
				return true
			}
			supply := c.App.Bank().Supply(dn)
			hop := trace.Hops[0]
			side, ok := sides[c.ID+"/"+hop.Channel]
			if !ok {
				out = append(out, Violation{
					Assertion: AssertConservation,
					Chain:     c.ID,
					Detail:    fmt.Sprintf("voucher %s references unknown channel %s (supply %d)", dn, hop.Channel, supply),
				})
				return true
			}
			inner := denom.Trace{Hops: trace.Hops[1:], Base: trace.Base}.String()
			escrow := side.counterparty.App.Bank().Balance(
				transfer.EscrowAccount(hop.Port, side.counterpartyChannel), inner)
			switch {
			case supply > escrow:
				out = append(out, Violation{
					Assertion: AssertConservation,
					Chain:     c.ID,
					Detail: fmt.Sprintf("voucher %s supply %d exceeds the %d escrowed as %s on %s",
						dn, supply, escrow, inner, side.counterparty.ID),
				})
			case quiescent && escrow > supply:
				out = append(out, Violation{
					Assertion: AssertConservation,
					Chain:     c.ID,
					Detail: fmt.Sprintf("quiescent but %d %s stay escrowed on %s against a voucher supply of only %d %s",
						escrow, inner, side.counterparty.ID, supply, dn),
				})
			}
			return true
		})
	}
	return out
}
