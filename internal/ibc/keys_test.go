package ibc_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
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
	seqs := []uint64{0, 1, 9, 10, 12345, 10_000_000_000_000_000_000, math.MaxUint64}
	for _, id := range [][2]string{{"transfer", "channel-0"}, {"", ""}, {"a/b", "channel-4294967295"}, {"transfer", long}} {
		port, channel := id[0], id[1]
		check("channel end", func(dst []byte) []byte { return ibc.AppendChannelKey(dst, port, channel) },
			ibc.ChannelKey(port, channel), fmt.Sprintf("channelEnds/ports/%s/channels/%s", port, channel))
		check("next sequence", func(dst []byte) []byte { return ibc.AppendNextSequenceSendKey(dst, port, channel) },
			ibc.NextSequenceSendKey(port, channel), fmt.Sprintf("nextSequenceSend/ports/%s/channels/%s", port, channel))
		for _, seq := range seqs {
			check("commitment", func(dst []byte) []byte { return ibc.AppendPacketCommitmentKey(dst, port, channel, seq) },
				ibc.PacketCommitmentKey(port, channel, seq), fmt.Sprintf("commitments/ports/%s/channels/%s/sequences/%d", port, channel, seq))
			check("receipt", func(dst []byte) []byte { return ibc.AppendPacketReceiptKey(dst, port, channel, seq) },
				ibc.PacketReceiptKey(port, channel, seq), fmt.Sprintf("receipts/ports/%s/channels/%s/sequences/%d", port, channel, seq))
			check("ack", func(dst []byte) []byte { return ibc.AppendPacketAckKey(dst, port, channel, seq) },
				ibc.PacketAckKey(port, channel, seq), fmt.Sprintf("acks/ports/%s/channels/%s/sequences/%d", port, channel, seq))
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
				if got, want := p.CommitmentBytes(), ref.Sum(nil); !bytes.Equal(got, want) {
					t.Errorf("commitment(height %d, timestamp %d, %d data bytes) = %x, want %x",
						h, int64(ts), len(data), got, want)
				}
			}
		}
	}
}

// Message digests are hashed into the tx hash; they are built with
// appends and pinned against the fmt spelling they replaced.
func TestMsgDigestsMatchFmtFormatting(t *testing.T) {
	for _, p := range []ibc.Packet{
		{},
		{SourcePort: "transfer", SourceChannel: "channel-0", Sequence: 1},
		{SourcePort: "a/b", SourceChannel: "channel-4294967295", Sequence: math.MaxUint64},
	} {
		id := fmt.Sprintf("%s/%s/%d", p.SourcePort, p.SourceChannel, p.Sequence)
		for want, m := range map[string]interface{ Digest() []byte }{
			"recv/" + id:    ibc.MsgRecvPacket{Packet: p},
			"ack/" + id:     ibc.MsgAcknowledgement{Packet: p},
			"timeout/" + id: ibc.MsgTimeout{Packet: p},
		} {
			if got := m.Digest(); string(got) != want {
				t.Errorf("%T digest = %q, want %q", m, got, want)
			}
			if allocs := testing.AllocsPerRun(20, func() { m.Digest() }); allocs != 1 {
				t.Errorf("%T digest took %.0f allocations, want 1", m, allocs)
			}
		}
	}
	for _, clientID := range []string{"07-tendermint-0", "", "a/b"} {
		for _, h := range []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64} {
			m := ibc.MsgUpdateClient{ClientID: clientID}
			m.Bundle.Header.Height = h
			want := fmt.Sprintf("update/%s/%d", clientID, h)
			if got := m.Digest(); string(got) != want {
				t.Errorf("update digest = %q, want %q", got, want)
			}
		}
	}
}

// The send counter is stored as decimal text, as fmt.Sprint wrote it.
func TestNextSequenceSendStoredAsDecimal(t *testing.T) {
	c := newMemoChain(t)
	c.mustDeliver("relayer", openMsgs(7)...)
	key := ibc.AppendNextSequenceSendKey(nil, "transfer", memoChan)
	for want := uint64(1); want <= 12; want++ {
		if raw, _ := c.app.State().Get(key); string(raw) != fmt.Sprint(want) {
			t.Fatalf("stored counter = %q, want %q", raw, fmt.Sprint(want))
		}
		c.mustDeliver("relayer", probeMsg{func(ctx *app.Context) error {
			p, err := c.keeper.SendPacket(ctx, "transfer", memoChan, nil, 100, 0)
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
	c := newMemoChain(t)
	c.mustDeliver("relayer", openMsgs(7)...)
	send := func(data string) probeMsg {
		return probeMsg{func(ctx *app.Context) error {
			_, err := c.keeper.SendPacket(ctx, "transfer", memoChan, []byte(data), 100, 0)
			return err
		}}
	}
	c.mustDeliver("relayer", send("first"))
	commitment := ibc.AppendPacketCommitmentKey(nil, "transfer", memoChan, 1)
	before, ok := c.app.State().Get(commitment)
	if !ok {
		t.Fatal("sequence 1 was not committed")
	}
	counter := ibc.AppendNextSequenceSendKey(nil, "transfer", memoChan)
	for name, corrupt := range map[string]func(*app.State){
		"garbage": func(s *app.State) { s.Set(counter, []byte("garbage")) },
		"absent":  func(s *app.State) { s.Delete(counter) },
	} {
		c.mustDeliver("relayer", probeMsg{func(ctx *app.Context) error { corrupt(ctx.State); return nil }})
		if errs := c.deliver("relayer", send("second")); errs == nil {
			t.Fatalf("%s counter: the send succeeded", name)
		}
		if after, _ := c.app.State().Get(commitment); !bytes.Equal(after, before) {
			t.Fatalf("%s counter: the commitment of sequence 1 became %x, was %x", name, after, before)
		}
	}
}
