package denom

import "testing"

func TestParseRoundTrip(t *testing.T) {
	cases := []struct {
		denom string
		hops  int
		base  string
	}{
		{"uatom", 0, "uatom"},
		{"transfer/channel-0/uatom", 1, "uatom"},
		{"transfer/channel-0/transfer/channel-1/uatom", 2, "uatom"},
		{"transfer/channel-10/transfer/channel-0/stake", 2, "stake"},
		// Base denoms containing slashes stay intact past the hop scan.
		{"transfer/channel-3/gamm/pool/1", 1, "gamm/pool/1"},
		// Not a channel identifier: the whole string is the base.
		{"transfer/channelx/uatom", 0, "transfer/channelx/uatom"},
		{"transfer/channel-/uatom", 0, "transfer/channel-/uatom"},
	}
	for _, c := range cases {
		tr := Parse(c.denom)
		if len(tr.Hops) != c.hops || tr.Base != c.base {
			t.Fatalf("Parse(%q) = %d hops, base %q; want %d, %q",
				c.denom, len(tr.Hops), tr.Base, c.hops, c.base)
		}
		if tr.String() != c.denom {
			t.Fatalf("round trip %q -> %q", c.denom, tr.String())
		}
	}
}

func TestPrefixRules(t *testing.T) {
	tr := Parse("transfer/channel-1/uatom")
	if !tr.HasPrefix("transfer", "channel-1") {
		t.Fatal("outermost hop not detected")
	}
	// channel-1 vs channel-10 must not alias.
	if tr.HasPrefix("transfer", "channel-10") {
		t.Fatal("channel-10 aliases channel-1")
	}
	if Parse("transfer/channel-10/uatom").HasPrefix("transfer", "channel-1") {
		t.Fatal("channel-1 aliases channel-10")
	}

	nested := tr.AddPrefix("transfer", "channel-7")
	if nested.String() != "transfer/channel-7/transfer/channel-1/uatom" {
		t.Fatalf("nested = %q", nested.String())
	}
	if len(nested.Hops) != 2 || nested.IsNative() {
		t.Fatalf("nested depth = %d", len(nested.Hops))
	}
	back := nested.TrimPrefix()
	if back.String() != tr.String() {
		t.Fatalf("trim = %q, want %q", back.String(), tr.String())
	}
	if native := back.TrimPrefix().TrimPrefix(); native.String() != "uatom" {
		t.Fatalf("full unwind = %q", native.String())
	}
}

func TestSourceZoneDetection(t *testing.T) {
	// Native token leaving home: sender is the source.
	if !SenderChainIsSource("transfer", "channel-0", "uatom") {
		t.Fatal("native token should be sender-sourced")
	}
	// Voucher going back out through the channel it came in on: receiver
	// (counterparty) is the source, the sender burns.
	if SenderChainIsSource("transfer", "channel-0", "transfer/channel-0/uatom") {
		t.Fatal("returning voucher should not be sender-sourced")
	}
	if !ReceiverChainIsSource("transfer", "channel-0", "transfer/channel-0/uatom") {
		t.Fatal("returning voucher should be receiver-sourced")
	}
	// Voucher leaving through a DIFFERENT channel moves further from its
	// source: the sender escrows it like a native token (the nesting case).
	if !SenderChainIsSource("transfer", "channel-1", "transfer/channel-0/uatom") {
		t.Fatal("voucher crossing a new channel should be sender-sourced")
	}
}
