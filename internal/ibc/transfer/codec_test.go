package transfer

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"ibcbench/internal/app"
)

// PacketData is written with appends and read back without encoding/json
// when it is in that exact form. Its bytes are hashed into the packet
// commitment and a relayer can submit any bytes at all, so both
// directions are held against encoding/json: same bytes out, and for
// arbitrary bytes in the same value and the same accept/reject.

// forwardMemo is a two-hop pfm memo as pfm.Memo writes it.
const forwardMemo = `{"forward":{"receiver":"pfm-forwarder","port":"transfer","channel":"channel-1",` +
	`"next":{"receiver":"receiver-user-0000","port":"transfer","channel":"channel-0","timeout_blocks":40}}}`

var packetDataCases = []PacketData{
	{},
	{Denom: "uatom", Amount: 1, Sender: "user-0000", Receiver: "receiver-user-0000"},
	{Denom: "transfer/channel-0/transfer/channel-3/uatom", Amount: math.MaxUint64, Sender: "pfm-forwarder", Receiver: "r"},
	{Denom: "uatom", Amount: 7, Sender: "a", Receiver: "b", Memo: forwardMemo},
	{Denom: "uatom", Amount: 7, Sender: "a", Receiver: "b", Memo: fmt.Sprintf(`{"forward":{"receiver":"x","port":"p","channel":"c","next":%q}}`, forwardMemo)},
	{Denom: `quo"te`, Sender: `back\slash`, Receiver: "<script>&amp;</script>", Memo: "free-form memo / with a slash"},
	{Denom: "line\u2028sep", Sender: "para\u2029sep", Receiver: "tab\tnl\ncr\rbs\bff\fnul\x00esc\x1bdel\x7f"},
	{Denom: "bad\xffutf8", Sender: "\xc3", Receiver: "trunc\xe2\x80", Memo: "café 世界 \U0001F600"},
}

// checkPacketDataEncode holds Bytes against json.Marshal.
func checkPacketDataEncode(t *testing.T, d PacketData) []byte {
	t.Helper()
	want, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	got := d.Bytes()
	if !bytes.Equal(got, want) {
		t.Fatalf("Bytes(%+v)\n got %s\nwant %s", d, got, want)
	}
	return got
}

// checkPacketDataDecode holds ParsePacketData against json.Unmarshal.
func checkPacketDataDecode(t *testing.T, raw []byte) {
	t.Helper()
	var want PacketData
	wantErr := json.Unmarshal(raw, &want)
	got, err := ParsePacketData(raw)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("ParsePacketData(%q) error = %v, json.Unmarshal error = %v", raw, err, wantErr)
	}
	if err == nil && got != want {
		t.Fatalf("ParsePacketData(%q)\n got %+v\nwant %+v", raw, got, want)
	}
}

func TestPacketDataCodecMatchesEncodingJSON(t *testing.T) {
	for _, d := range packetDataCases {
		checkPacketDataDecode(t, checkPacketDataEncode(t, d))
	}
	for _, raw := range []string{
		``, `{}`, `null`, `[]`, `{"denom":"uatom"}`, ` {"denom":"a","amount":1,"sender":"s","receiver":"r"} `,
		`{"denom":"a","amount":1,"sender":"s","receiver":"r","memo":""}`,
		`{"denom":"a","amount":1,"sender":"s","receiver":"r","memo":"m"}trailing`,
		`{"denom":"a","amount":01,"sender":"s","receiver":"r"}`,
		`{"denom":"a","amount":-1,"sender":"s","receiver":"r"}`,
		`{"denom":"a","amount":1e3,"sender":"s","receiver":"r"}`,
		`{"denom":"a","amount":1.0,"sender":"s","receiver":"r"}`,
		`{"denom":"a","amount":18446744073709551615,"sender":"s","receiver":"r"}`,
		`{"denom":"a","amount":18446744073709551616,"sender":"s","receiver":"r"}`,
		`{"denom":"a","amount":"1","sender":"s","receiver":"r"}`,
		`{"denom":"a","amount":,"sender":"s","receiver":"r"}`,
		`{"denom":null,"amount":1,"sender":"s","receiver":"r"}`,
		`{"DENOM":"a","Amount":1,"sender":"s","receiver":"r"}`,
		`{"amount":1,"denom":"a","receiver":"r","sender":"s"}`,
		`{"denom":"a","denom":"b","amount":1,"sender":"s","receiver":"r"}`,
		`{"denom":"a","amount":1,"sender":"s","receiver":"r","extra":[1,2]}`,
		`{"denom":"a😀","amount":1,"sender":"\/","receiver":"\b\f\n\r\t\"\\"}`,
		`{"denom":"\x","amount":1,"sender":"s","receiver":"r"}`,
		`{"denom":"\ud800","amount":1,"sender":"s","receiver":"r"}`,
		`{"denom":"a` + "\n" + `","amount":1,"sender":"s","receiver":"r"}`,
		`{"denom":"a` + "\xff" + `","amount":1,"sender":"s","receiver":"r"}`,
		`{"denom":"caf` + "é" + `","amount":1,"sender":"s","receiver":"r"}`,
		`{"denom":"a","amount":1,"sender":"s","receiver":"r`,
		`{"denom":"a","amount":1,"sender":"s","receiver":"r\`,
		`{"denom":"a","amount":1,"sender":"s","receiver":"r"`,
	} {
		checkPacketDataDecode(t, []byte(raw))
	}
}

// Bytes' own output must take the direct path, or the codec is
// encoding/json with extra steps: it allocates the strings it returns
// (plus the unescape buffer of an escaped memo) and nothing else.
func TestParsePacketDataReadsItsOwnBytesDirectly(t *testing.T) {
	for _, c := range []struct {
		d      PacketData
		allocs float64
	}{
		{packetDataCases[1], 4},
		{packetDataCases[3], 6},
	} {
		raw := c.d.Bytes()
		if got := testing.AllocsPerRun(20, func() {
			if _, err := ParsePacketData(raw); err != nil {
				t.Fatal(err)
			}
		}); got > c.allocs {
			t.Errorf("ParsePacketData(%s) took %.0f allocations, want at most %.0f", raw, got, c.allocs)
		}
	}
}

func FuzzPacketDataCodec(f *testing.F) {
	for _, d := range packetDataCases {
		f.Add(d.Denom, d.Amount, d.Sender, d.Receiver, d.Memo, d.Bytes())
	}
	f.Add("", uint64(0), "", "", "", []byte(`{"denom":"a","amount":1,"sender":"s","receiver":"r"} `))
	f.Fuzz(func(t *testing.T, denom string, amount uint64, sender, receiver, memo string, raw []byte) {
		d := PacketData{Denom: denom, Amount: amount, Sender: sender, Receiver: receiver, Memo: memo}
		checkPacketDataDecode(t, checkPacketDataEncode(t, d))
		checkPacketDataDecode(t, raw)
	})
}

// MsgTransfer.Digest is hashed into the tx hash; it is built with
// appends and pinned against the fmt spelling it replaced.
func TestMsgTransferDigestMatchesFmtFormatting(t *testing.T) {
	for _, m := range []MsgTransfer{
		{},
		{Sender: "user-0001", Receiver: "receiver-user-0001", Token: app.Coin{Denom: "uatom", Amount: 1},
			SourcePort: "transfer", SourceChannel: "channel-0", TimeoutHeight: 10012, Nonce: 4711},
		{Sender: "pfm-forwarder", Receiver: "r", Token: app.Coin{Denom: "transfer/channel-1/uatom", Amount: math.MaxUint64},
			SourceChannel: "channel-4294967295", Memo: forwardMemo, Nonce: math.MaxUint64},
		{Sender: "a/b", Receiver: "", Token: app.Coin{Amount: 5}, Memo: "/"},
	} {
		want := fmt.Sprintf("xfer/%s/%s/%s/%s/%d", m.Sender, m.Receiver, m.Token, m.SourceChannel, m.Nonce)
		if m.Memo != "" {
			want += "/" + m.Memo
		}
		if got := m.Digest(); string(got) != want {
			t.Errorf("Digest = %q, want %q", got, want)
		}
	}
	m := MsgTransfer{Sender: "user-0001", Receiver: "receiver-user-0001", Token: app.Coin{Denom: "uatom", Amount: 1},
		SourceChannel: "channel-0", Memo: forwardMemo, Nonce: 9}
	if got := testing.AllocsPerRun(20, func() { m.Digest() }); got != 1 {
		t.Errorf("Digest took %.0f allocations, want 1", got)
	}
}
