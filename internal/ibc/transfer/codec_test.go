package transfer

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"ibcbench/internal/app"
)

// PacketData is written with appends and read back in place, without
// encoding/json, when it is in that exact form. Its bytes are hashed into
// the packet commitment and a relayer can submit any bytes at all, so
// both directions are held against encoding/json: same bytes out, and for
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

// checkPacketDataEncode holds AppendBytes against json.Marshal.
func checkPacketDataEncode(t *testing.T, d PacketData) []byte {
	t.Helper()
	want, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	got := d.AppendBytes(nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendBytes(%+v)\n got %s\nwant %s", d, got, want)
	}
	if got := d.AppendBytes([]byte("prefix")); string(got) != "prefix"+string(want) {
		t.Fatalf("AppendBytes after a prefix = %s, want prefix%s", got, want)
	}
	return got
}

// checkPacketDataDecode holds ReadPacketData against json.Unmarshal.
func checkPacketDataDecode(t *testing.T, raw []byte) {
	t.Helper()
	var want PacketData
	wantErr := json.Unmarshal(raw, &want)
	got, err := ReadPacketData(raw)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("ReadPacketData(%q) error = %v, json.Unmarshal error = %v", raw, err, wantErr)
	}
	if err != nil {
		return
	}
	if back := (PacketData{Denom: string(got.Denom), Amount: got.Amount, Sender: string(got.Sender),
		Receiver: string(got.Receiver), Memo: string(got.Memo)}); back != want {
		t.Fatalf("ReadPacketData(%q)\n got %+v\nwant %+v", raw, back, want)
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

// within reports whether b is a sub-slice of raw: it ends where raw's
// array ends.
func within(b, raw []byte) bool {
	return len(b) > 0 && &raw[:cap(raw)][cap(raw)-1] == &b[:cap(b)][cap(b)-1]
}

// AppendBytes' own output is read in place, or the codec is
// encoding/json with extra steps: a field without escapes is a
// sub-slice of the payload, and only an escaped memo costs the one
// buffer it is unescaped into.
func TestReadPacketDataReadsItsOwnBytesInPlace(t *testing.T) {
	for _, c := range []struct {
		d      PacketData
		allocs float64
	}{
		{packetDataCases[1], 0},
		{PacketData{Denom: "transfer/channel-3/uatom", Amount: 9, Sender: "a", Receiver: "b", Memo: "a note"}, 0},
		{packetDataCases[3], 1},
	} {
		raw := c.d.AppendBytes(nil)
		if got := testing.AllocsPerRun(20, func() {
			if _, err := ReadPacketData(raw); err != nil {
				t.Fatal(err)
			}
		}); got != c.allocs {
			t.Errorf("ReadPacketData(%s) took %.0f allocations, want %.0f", raw, got, c.allocs)
		}
		v, _ := ReadPacketData(raw)
		if !within(v.Denom, raw) || !within(v.Sender, raw) || !within(v.Receiver, raw) {
			t.Errorf("ReadPacketData(%s): denom, sender or receiver is a copy, not a view", raw)
		}
	}
}

func FuzzPacketDataCodec(f *testing.F) {
	for _, d := range packetDataCases {
		f.Add(d.Denom, d.Amount, d.Sender, d.Receiver, d.Memo, d.AppendBytes(nil))
	}
	f.Add("", uint64(0), "", "", "", []byte(`{"denom":"a","amount":1,"sender":"s","receiver":"r"} `))
	f.Fuzz(func(t *testing.T, denom string, amount uint64, sender, receiver, memo string, raw []byte) {
		d := PacketData{Denom: denom, Amount: amount, Sender: sender, Receiver: receiver, Memo: memo}
		checkPacketDataDecode(t, checkPacketDataEncode(t, d))
		checkPacketDataDecode(t, raw)
	})
}

// MsgTransfer.AppendDigest writes into the tx hash's buffer; it is
// pinned against the fmt spelling it replaced, and a buffer with room for
// the digest takes no allocation.
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
		if got := m.AppendDigest(nil); string(got) != want {
			t.Errorf("AppendDigest = %q, want %q", got, want)
		}
		if got := m.AppendDigest([]byte("prefix")); string(got) != "prefix"+want {
			t.Errorf("AppendDigest after a prefix = %q, want %q", got, "prefix"+want)
		}
		buf := make([]byte, 0, len(want))
		if got := testing.AllocsPerRun(20, func() { m.AppendDigest(buf) }); got != 0 {
			t.Errorf("AppendDigest into a sized buffer took %.0f allocations, want 0", got)
		}
	}
}

// transferTx is a workload-shaped transaction: 100 transfers, the last
// one carrying a forward memo.
func transferTx() *app.Tx {
	msgs := make([]app.Msg, 100)
	for i := range msgs {
		m := &MsgTransfer{Sender: "user-0007", Receiver: "receiver-user-0007", Token: app.Coin{Denom: "uatom", Amount: 1},
			SourcePort: PortID, SourceChannel: "channel-0", TimeoutHeight: 10012, Nonce: uint64(4700 + i)}
		if i == len(msgs)-1 {
			m.Memo = forwardMemo
		}
		msgs[i] = m
	}
	return &app.Tx{Signer: "user-0007", Sequence: 3, Nonce: 4799, Msgs: msgs}
}

// The tx hash binds every message's route, type and digest in order; a
// fixed transfer tx keeps the hash it had when each message returned its
// digest in a slice of its own.
func TestTransferTxHashGolden(t *testing.T) {
	const want = "8a68523b7db5d5fe1b4d3d9d9c506dac256b3507d0a566de84b13955ab597fe2"
	h := transferTx().Hash()
	if got := hex.EncodeToString(h[:]); got != want {
		t.Fatalf("tx hash = %s, want %s", got, want)
	}
}

// Hashing a 100-transfer tx allocates at most its one digest buffer.
func TestTxHashAllocs(t *testing.T) {
	tx := transferTx()
	if got := testing.AllocsPerRun(20, func() {
		fresh := *tx // an unhashed copy
		fresh.Hash()
	}); got > 1 {
		t.Fatalf("Tx.Hash of a 100-transfer tx took %.0f allocations, want at most 1", got)
	}
}
