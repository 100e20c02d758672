package denom_test

import (
	"reflect"
	"strconv"
	"testing"

	"ibcbench/internal/ibc"
	"ibcbench/internal/ibc/denom"
	"ibcbench/internal/ibc/transfer"
)

// FuzzDenomTrace: Parse and String are inverse on every input, Parse is
// idempotent on its own output, and one AddPrefix undone by TrimPrefix
// returns the trace it started from. The string rules the transfer
// module runs on (CutHop, ReceiverChainIsSource, SenderChainIsSource and
// transfer.ReceivedDenom) agree with that trace model for arbitrary
// ports, channels and denoms. The first seeds are TestParseRoundTrip's
// denominations; the rest are the rule's edge cases: an empty port, a
// port containing a slash, "channel-" with no digits, and denoms ending
// in a slash.
func FuzzDenomTrace(f *testing.F) {
	for _, s := range []string{
		"uatom",
		"transfer/channel-0/uatom",
		"transfer/channel-0/transfer/channel-1/uatom",
		"transfer/channel-10/transfer/channel-0/stake",
		"transfer/channel-3/gamm/pool/1",
		"transfer/channelx/uatom",
		"transfer/channel-/uatom",
	} {
		f.Add(s, uint64(0), "transfer", "channel-0")
	}
	f.Add("transfer/channel-0/uatom", uint64(0), "", "channel-0")
	f.Add("a/b/channel-1/uatom", uint64(1), "a/b", "channel-1")
	f.Add("a/channel-1/channel-2/uatom", uint64(2), "a/channel-1", "channel-2")
	f.Add("transfer/channel-/uatom", uint64(0), "transfer", "channel-")
	f.Add("transfer/channel-0/", uint64(0), "transfer", "channel-0")
	f.Add("transfer/channel-0/transfer/channel-1/", uint64(1), "transfer", "channel-1")
	f.Add("uatom/", uint64(0), "uatom", "channel-0")
	f.Fuzz(func(t *testing.T, s string, n uint64, port, channel string) {
		tr := denom.Parse(s)
		if got := tr.String(); got != s {
			t.Fatalf("Parse(%q).String() = %q", s, got)
		}
		if again := denom.Parse(tr.String()); !reflect.DeepEqual(again, tr) {
			t.Fatalf("Parse not idempotent on %q: %+v then %+v", s, tr, again)
		}
		numbered := "channel-" + strconv.FormatUint(n, 10)
		up := tr.AddPrefix("transfer", numbered)
		if !up.HasPrefix("transfer", numbered) {
			t.Fatalf("%+v lacks the prefix it was given", up)
		}
		if !denom.ReceiverChainIsSource("transfer", numbered, up.String()) {
			t.Fatalf("%q does not parse back with its new prefix", up.String())
		}
		if down := up.TrimPrefix(); !reflect.DeepEqual(down, tr) {
			t.Fatalf("AddPrefix then TrimPrefix on %q: %+v, want %+v", s, down, tr)
		}

		// The string rules against the model, on the fuzzed denom, on it
		// with a numbered hop in front and on it behind the fuzzed
		// (port, channel), which may or may not parse as a hop.
		for _, d := range []string{s, up.String(), port + "/" + channel + "/" + s} {
			for _, hop := range [][2]string{{port, channel}, {"transfer", numbered}, {port, numbered}} {
				checkHopRules(t, d, hop[0], hop[1], port, channel)
			}
		}
	})
}

// checkHopRules checks every string rule for a packet leaving through
// (port, channel) and arriving at (destPort, destChannel) with denom d
// against the parsed trace of d.
func checkHopRules(t *testing.T, d, port, channel, destPort, destChannel string) {
	t.Helper()
	tr := denom.Parse(d)
	want := tr.HasPrefix(port, channel)
	rest, ok := denom.CutHop(d, port, channel)
	if ok != want || (ok && rest != tr.TrimPrefix().String()) {
		t.Fatalf("CutHop(%q, %q, %q) = %q, %v; the trace's hops %v start with it: %v",
			d, port, channel, rest, ok, tr.Hops, want)
	}
	if got := denom.ReceiverChainIsSource(port, channel, d); got != want {
		t.Fatalf("ReceiverChainIsSource(%q, %q, %q) = %v, want %v", port, channel, d, got, want)
	}
	if got := denom.SenderChainIsSource(port, channel, d); got == want {
		t.Fatalf("SenderChainIsSource(%q, %q, %q) = %v, want %v", port, channel, d, got, !want)
	}
	p := ibc.Packet{SourcePort: port, SourceChannel: channel, DestPort: destPort, DestChannel: destChannel}
	wantDenom := tr.AddPrefix(destPort, destChannel).String()
	if want {
		wantDenom = tr.TrimPrefix().String()
	}
	if got, home := transfer.ReceivedDenom(nil, p, []byte(d)); string(got) != wantDenom || home != want {
		t.Fatalf("ReceivedDenom(%+v, %q) = %q, %v; want %q, %v", p, d, got, home, wantDenom, want)
	}
}
