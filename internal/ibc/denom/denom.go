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

// Trace is a parsed denomination: the hop path plus the base denom. The
// transfer rules below never build one; they read the denom string.
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
// is a valid channel identifier and another element follows it;
// everything after the last hop is the base denom. A denom with no hops
// parses as a native token.
func Parse(denom string) Trace {
	parts := strings.Split(denom, "/")
	var hops []Hop
	i := 0
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

// CutHop reports whether denom's outermost hop is (port, channel), that
// is whether Parse(denom).Hops[0] is that hop, and if so returns the rest
// of the denom after it: the trace with that hop removed, as a substring
// (or, for bytes, a sub-slice). It reads the denom without splitting it:
// Parse takes a leading "port/channel/" as a hop exactly when the port is
// non-empty and has no slash and the channel is a channel identifier.
func CutHop[S ~string | ~[]byte](denom S, port, channel string) (rest S, ok bool) {
	if port == "" || strings.IndexByte(port, '/') >= 0 || !isChannelID(channel) {
		return rest, false
	}
	n := len(port) + 1 + len(channel) + 1
	if len(denom) < n || string(denom[:len(port)]) != port || denom[len(port)] != '/' ||
		string(denom[len(port)+1:n-1]) != channel || denom[n-1] != '/' {
		return rest, false
	}
	return denom[n:], true
}

// ReceiverChainIsSource reports whether a packet is returning a token to
// the zone it last came from: the denom carried in the packet data is
// prefixed by the packet's *source* port and channel, meaning the
// counterparty minted it as a voucher of this channel and the receiving
// chain holds the escrowed original (ICS-20 unwind rule).
func ReceiverChainIsSource[S ~string | ~[]byte](sourcePort, sourceChannel string, packetDenom S) bool {
	_, ok := CutHop(packetDenom, sourcePort, sourceChannel)
	return ok
}

// SenderChainIsSource reports whether the sending chain is the source
// zone for the token relative to the outgoing channel: the denom is NOT
// a voucher of that channel, so the sender escrows (and the receiver
// mints) rather than burning a returning voucher.
func SenderChainIsSource(sourcePort, sourceChannel, packetDenom string) bool {
	return !ReceiverChainIsSource(sourcePort, sourceChannel, packetDenom)
}
