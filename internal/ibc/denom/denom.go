// Package denom implements the ICS-20 denomination-trace engine: parsing
// and manipulating full trace paths of the form
//
//	port/channel[/port/channel...]/base
//
// A token leaving its native zone gains one (port, channel) hop per
// chain it crosses, outermost hop first — the "voucher of a voucher"
// model real multi-hop Cosmos transfers produce. The prefix/unwind rules
// here decide escrow vs mint/burn on every hop (ICS-20 §"source zone"),
// replacing the single-hop string-prefix checks the transfer module
// started with.
package denom

import (
	"strconv"
	"strings"
)

// Hop is one (port, channel) element of a trace path. Hop order is
// outermost-first: Hops[0] is the channel the token most recently
// crossed, on the chain currently holding it.
type Hop struct {
	Port    string
	Channel string
}

// String renders the hop as "port/channel".
func (h Hop) String() string { return h.Port + "/" + h.Channel }

// Trace is a parsed denomination: the hop path plus the base denom.
type Trace struct {
	Hops []Hop
	Base string
}

// isChannelID reports whether s is a channel identifier ("channel-<n>"),
// the boundary marker the parser uses to split hops from the base denom
// (the base itself may contain slashes).
func isChannelID(s string) bool {
	rest, ok := strings.CutPrefix(s, "channel-")
	if !ok || rest == "" {
		return false
	}
	_, err := strconv.ParseUint(rest, 10, 64)
	return err == nil
}

// Parse splits a full denomination into its trace. Pairs of path
// elements are consumed as (port, channel) hops while the second element
// is a valid channel identifier; everything after the last hop is the
// base denom. A denom with no hops parses as a native token.
func Parse(denom string) Trace {
	parts := strings.Split(denom, "/")
	var hops []Hop
	i := 0
	// A hop is consumed only while a non-empty base remains after it.
	for i+2 < len(parts) && parts[i] != "" && isChannelID(parts[i+1]) {
		hops = append(hops, Hop{Port: parts[i], Channel: parts[i+1]})
		i += 2
	}
	return Trace{Hops: hops, Base: strings.Join(parts[i:], "/")}
}

// String reassembles the full denomination.
func (t Trace) String() string {
	if len(t.Hops) == 0 {
		return t.Base
	}
	var sb strings.Builder
	for _, h := range t.Hops {
		sb.WriteString(h.Port)
		sb.WriteByte('/')
		sb.WriteString(h.Channel)
		sb.WriteByte('/')
	}
	sb.WriteString(t.Base)
	return sb.String()
}

// IsNative reports whether the token sits in its origin zone (no hops).
func (t Trace) IsNative() bool { return len(t.Hops) == 0 }

// Depth is the number of hops in the trace (0 = native).
func (t Trace) Depth() int { return len(t.Hops) }

// HasPrefix reports whether the trace's outermost hop is (port, channel)
// — i.e. the token entered the current chain through that channel.
func (t Trace) HasPrefix(port, channel string) bool {
	return len(t.Hops) > 0 && t.Hops[0].Port == port && t.Hops[0].Channel == channel
}

// AddPrefix returns the trace with one more outermost hop, the receiving
// chain's view of an incoming token that is moving away from its source.
func (t Trace) AddPrefix(port, channel string) Trace {
	hops := make([]Hop, 0, len(t.Hops)+1)
	hops = append(hops, Hop{Port: port, Channel: channel})
	hops = append(hops, t.Hops...)
	return Trace{Hops: hops, Base: t.Base}
}

// TrimPrefix returns the trace with the outermost hop removed, the
// receiving chain's view of a token returning toward its source. Calling
// it on a native trace returns the trace unchanged; a trace it makes
// native has nil Hops, as Parse gives it.
func (t Trace) TrimPrefix() Trace {
	if len(t.Hops) <= 1 {
		return Trace{Base: t.Base}
	}
	return Trace{Hops: t.Hops[1:], Base: t.Base}
}

// ReceiverChainIsSource reports whether a packet is returning a token to
// the zone it last came from: the denom carried in the packet data is
// prefixed by the packet's *source* port and channel, meaning the
// counterparty minted it as a voucher of this channel and the receiving
// chain holds the escrowed original (ICS-20 unwind rule).
func ReceiverChainIsSource(sourcePort, sourceChannel, packetDenom string) bool {
	return Parse(packetDenom).HasPrefix(sourcePort, sourceChannel)
}

// SenderChainIsSource reports whether the sending chain is the source
// zone for the token relative to the outgoing channel: the denom is NOT
// a voucher of that channel, so the sender escrows (and the receiver
// mints) rather than burning a returning voucher.
func SenderChainIsSource(sourcePort, sourceChannel, packetDenom string) bool {
	return !ReceiverChainIsSource(sourcePort, sourceChannel, packetDenom)
}
