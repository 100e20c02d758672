package denom

import (
	"reflect"
	"strconv"
	"testing"
)

// FuzzDenomTrace: Parse and String are inverse on every input, Parse is
// idempotent on its own output, and one AddPrefix undone by TrimPrefix
// returns the trace it started from. Seeds are TestParseRoundTrip's
// denominations.
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
		f.Add(s, uint64(0))
	}
	f.Fuzz(func(t *testing.T, s string, n uint64) {
		tr := Parse(s)
		if got := tr.String(); got != s {
			t.Fatalf("Parse(%q).String() = %q", s, got)
		}
		if again := Parse(tr.String()); !reflect.DeepEqual(again, tr) {
			t.Fatalf("Parse not idempotent on %q: %+v then %+v", s, tr, again)
		}
		channel := "channel-" + strconv.FormatUint(n, 10)
		up := tr.AddPrefix("transfer", channel)
		if !up.HasPrefix("transfer", channel) {
			t.Fatalf("%+v lacks the prefix it was given", up)
		}
		if !ReceiverChainIsSource("transfer", channel, up.String()) {
			t.Fatalf("%q does not parse back with its new prefix", up.String())
		}
		if down := up.TrimPrefix(); !reflect.DeepEqual(down, tr) {
			t.Fatalf("AddPrefix then TrimPrefix on %q: %+v, want %+v", s, down, tr)
		}
	})
}
