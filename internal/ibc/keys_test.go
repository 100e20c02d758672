package ibc_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"strconv"
	"testing"
	"time"

	"ibcbench/internal/app"
	"ibcbench/internal/ibc"
)

// The state keys and the packet commitment are built with strconv
// appends; golden roots and proofs depend on their bytes, so every layout
// is pinned against the fmt formatting it replaced, in both its append
// form (after a prefix the builder must keep) and its string wrapper.
func TestKeysMatchFmtFormatting(t *testing.T) {
	long := "a-channel-name-longer-than-the-stack-buffer-the-key-is-assembled-in-" +
		"0123456789012345678901234567890123456789012345678901234567890123456789"
	if len(long) <= app.KeyBufLen {
		t.Fatalf("the long id (%d bytes) fits the %d-byte key buffer", len(long), app.KeyBufLen)
	}
	check := func(layout string, appendKey func(dst []byte) []byte, wrapped, want string) {
		t.Helper()
		var b [app.KeyBufLen]byte
		if got := appendKey(append(b[:0], "dst/"...)); string(got) != "dst/"+want {
			t.Errorf("%s: append form = %q, want %q", layout, got, "dst/"+want)
		}
		if wrapped != want {
			t.Errorf("%s: string form = %q, want %q", layout, wrapped, want)
		}
	}
	// CutPacketKey reads the per-channel layouts back (seq 0 for the
	// ones without a sequence) and refuses every other one.
	cut := func(key, kind, channel string, seq uint64) {
		t.Helper()
		if k, c, s, ok := ibc.CutPacketKey(key); !ok || k != kind || c != channel || s != seq {
			t.Errorf("CutPacketKey(%q) = %q %q %d %v, want %q %q %d", key, k, c, s, ok, kind, channel, seq)
		}
	}
	// A packet record's key is its table's prefix plus the sequence.
	record := func(kind app.RecordKind, port, channel string, seq uint64) func(dst []byte) []byte {
		return func(dst []byte) []byte {
			return strconv.AppendUint(ibc.PacketRecords(dst, kind, port, channel).Prefix, seq, 10)
		}
	}
	seqs := []uint64{0, 1, 9, 10, 12345, 10_000_000_000_000_000_000, math.MaxUint64}
	for _, id := range [][2]string{{"transfer", "channel-0"}, {"", ""}, {"a/b", "channel-4294967295"}, {"transfer", long}} {
		port, channel := id[0], id[1]
		check("channel end", func(dst []byte) []byte { return ibc.AppendChannelKey(dst, port, channel) },
			ibc.ChannelKey(port, channel), fmt.Sprintf("channelEnds/ports/%s/channels/%s", port, channel))
		cut(ibc.ChannelKey(port, channel), "channelEnds", channel, 0)
		check("next sequence", func(dst []byte) []byte { return ibc.AppendNextSequenceSendKey(dst, port, channel) },
			ibc.NextSequenceSendKey(port, channel), fmt.Sprintf("nextSequenceSend/ports/%s/channels/%s", port, channel))
		cut(ibc.NextSequenceSendKey(port, channel), "nextSequenceSend", channel, 0)
		for _, seq := range seqs {
			check("commitment", record(app.Commitment, port, channel, seq),
				ibc.PacketCommitmentKey(port, channel, seq), fmt.Sprintf("commitments/ports/%s/channels/%s/sequences/%d", port, channel, seq))
			cut(ibc.PacketCommitmentKey(port, channel, seq), "commitments", channel, seq)
			check("receipt", record(app.Receipt, port, channel, seq),
				ibc.PacketReceiptKey(port, channel, seq), fmt.Sprintf("receipts/ports/%s/channels/%s/sequences/%d", port, channel, seq))
			cut(ibc.PacketReceiptKey(port, channel, seq), "receipts", channel, seq)
			check("ack", record(app.Ack, port, channel, seq),
				ibc.PacketAckKey(port, channel, seq), fmt.Sprintf("acks/ports/%s/channels/%s/sequences/%d", port, channel, seq))
			cut(ibc.PacketAckKey(port, channel, seq), "acks", channel, seq)
		}
	}
	for _, id := range []string{"07-tendermint-0", "", "a/b", long} {
		check("client state", func(dst []byte) []byte { return ibc.AppendClientStateKey(dst, id) },
			ibc.ClientStateKey(id), fmt.Sprintf("clients/%s/clientState", id))
		check("connection", func(dst []byte) []byte { return ibc.AppendConnectionKey(dst, id) },
			ibc.ConnectionKey(id), fmt.Sprintf("connections/%s", id))
		for _, h := range []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64} {
			check("consensus", func(dst []byte) []byte { return ibc.AppendConsensusStateKey(dst, id, h) },
				ibc.ConsensusStateKey(id, h), fmt.Sprintf("clients/%s/consensusStates/%d", id, h))
		}
		for _, k := range []string{ibc.ClientStateKey(id), ibc.ConnectionKey(id), ibc.ConsensusStateKey(id, 42)} {
			if _, _, _, ok := ibc.CutPacketKey(k); ok {
				t.Errorf("CutPacketKey(%q) is ok", k)
			}
		}
	}
	for _, k := range []string{"supply/transfer/channel-0/stake", "balances/escrow/transfer/channel-0/stake",
		ibc.PacketReceiptKey("transfer", "channel-0", 1) + "x", "receipts/ports/transfer/channels/channel-0/sequences/"} {
		if _, _, _, ok := ibc.CutPacketKey(k); ok {
			t.Errorf("CutPacketKey(%q) is ok", k)
		}
	}
}

func TestCommitmentBytesMatchFmtFormatting(t *testing.T) {
	heights := []int64{0, 1, -1, 1000, math.MaxInt64, math.MinInt64}
	stamps := []time.Duration{0, 1, -1, 90 * time.Second, math.MaxInt64, math.MinInt64}
	for _, data := range [][]byte{nil, {}, []byte(`{"denom":"uatom","amount":1}`)} {
		for _, h := range heights {
			for _, ts := range stamps {
				p := ibc.Packet{Data: data, TimeoutHeight: h, TimeoutTimestamp: ts}
				ref := sha256.New()
				fmt.Fprintf(ref, "%d/%d/", h, ts)
				ref.Write(data)
				if got, want := p.AppendCommitment(nil), ref.Sum(nil); !bytes.Equal(got, want) {
					t.Errorf("commitment(height %d, timestamp %d, %d data bytes) = %x, want %x",
						h, int64(ts), len(data), got, want)
				}
			}
		}
	}
}

// Message digests are appended into the tx hash's buffer; they are
// pinned against the fmt spelling they replaced, and a buffer with room
// for the digest takes no allocation.
func TestMsgDigestsMatchFmtFormatting(t *testing.T) {
	type digester interface{ AppendDigest([]byte) []byte }
	check := func(m digester, want string) {
		t.Helper()
		if got := m.AppendDigest(nil); string(got) != want {
			t.Errorf("%T digest = %q, want %q", m, got, want)
		}
		if got := m.AppendDigest([]byte("prefix")); string(got) != "prefix"+want {
			t.Errorf("%T digest after a prefix = %q, want %q", m, got, "prefix"+want)
		}
		buf := make([]byte, 0, len(want))
		if allocs := testing.AllocsPerRun(20, func() { m.AppendDigest(buf) }); allocs != 0 {
			t.Errorf("%T digest into a sized buffer took %.0f allocations, want 0", m, allocs)
		}
	}
	for _, p := range []ibc.Packet{
		{},
		{SourcePort: "transfer", SourceChannel: "channel-0", Sequence: 1},
		{SourcePort: "a/b", SourceChannel: "channel-4294967295", Sequence: math.MaxUint64},
	} {
		id := fmt.Sprintf("%s/%s/%d", p.SourcePort, p.SourceChannel, p.Sequence)
		check(&ibc.MsgRecvPacket{Packet: p}, "recv/"+id)
		check(&ibc.MsgAcknowledgement{Packet: p}, "ack/"+id)
		check(&ibc.MsgTimeout{Packet: p}, "timeout/"+id)
	}
	for _, clientID := range []string{"07-tendermint-0", "", "a/b"} {
		for _, h := range []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64} {
			m := ibc.MsgUpdateClient{ClientID: clientID}
			m.Bundle.Header.Height = h
			check(&m, fmt.Sprintf("update/%s/%d", clientID, h))
		}
	}
}

// The send counter is stored as decimal text, as fmt.Sprint wrote it.
func TestNextSequenceSendStoredAsDecimal(t *testing.T) {
	c := newObjectChain(t)
	c.mustDeliver("relayer", openMsgs(7)...)
	key := ibc.AppendNextSequenceSendKey(nil, "transfer", objChan)
	for want := uint64(1); want <= 12; want++ {
		if raw, _ := c.app.State().Get(key); string(raw) != fmt.Sprint(want) {
			t.Fatalf("stored counter = %q, want %q", raw, fmt.Sprint(want))
		}
		c.mustDeliver("relayer", probeMsg{func(ctx *app.Context) error {
			p, err := c.keeper.SendPacket(ctx, "transfer", objChan, nil, 100, 0)
			if err == nil && p.Sequence != want {
				t.Errorf("sent sequence %d, want %d", p.Sequence, want)
			}
			return err
		}})
	}
}

// Every path that opens a channel stores the send counter, so a counter
// that is missing or not a number fails the send instead of being read as
// 1, which would overwrite the live commitment of sequence 1.
func TestBadSendCounterFailsSend(t *testing.T) {
	c := newObjectChain(t)
	c.mustDeliver("relayer", openMsgs(7)...)
	send := func(data string) probeMsg {
		return probeMsg{func(ctx *app.Context) error {
			_, err := c.keeper.SendPacket(ctx, "transfer", objChan, []byte(data), 100, 0)
			return err
		}}
	}
	c.mustDeliver("relayer", send("first"))
	commitments := ibc.PacketRecords(nil, app.Commitment, "transfer", objChan)
	before, ok := c.app.State().GetRecord(&commitments, 1)
	if !ok {
		t.Fatal("sequence 1 was not committed")
	}
	counter := ibc.AppendNextSequenceSendKey(nil, "transfer", objChan)
	for name, corrupt := range map[string]func(*app.State){
		"garbage": func(s *app.State) { s.Set(counter, []byte("garbage")) },
		"absent":  func(s *app.State) { s.Delete(counter) },
	} {
		c.mustDeliver("relayer", probeMsg{func(ctx *app.Context) error { corrupt(ctx.State); return nil }})
		if errs := c.deliver("relayer", send("second")); errs == nil {
			t.Fatalf("%s counter: the send succeeded", name)
		}
		if after, _ := c.app.State().GetRecord(&commitments, 1); !bytes.Equal(after, before) {
			t.Fatalf("%s counter: the commitment of sequence 1 became %x, was %x", name, after, before)
		}
	}
}
