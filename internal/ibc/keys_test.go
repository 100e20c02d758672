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
// appends; golden roots and proofs depend on their bytes, so they are
// pinned against the fmt formatting they replaced.
func TestKeysMatchFmtFormatting(t *testing.T) {
	seqs := []uint64{0, 1, 9, 10, 12345, 10_000_000_000_000_000_000, math.MaxUint64}
	ids := [][2]string{{"transfer", "channel-0"}, {"", ""}, {"a/b", "channel-4294967295"},
		{"transfer", "a-channel-name-longer-than-the-stack-buffer-the-key-is-assembled-in-" +
			"0123456789012345678901234567890123456789012345678901234567890123456789"}}
	for _, id := range ids {
		port, channel := id[0], id[1]
		for _, seq := range seqs {
			for _, k := range []struct{ name, got, layout string }{
				{"commitment", ibc.PacketCommitmentKey(port, channel, seq), "commitments/ports/%s/channels/%s/sequences/%d"},
				{"receipt", ibc.PacketReceiptKey(port, channel, seq), "receipts/ports/%s/channels/%s/sequences/%d"},
				{"ack", ibc.PacketAckKey(port, channel, seq), "acks/ports/%s/channels/%s/sequences/%d"},
			} {
				if want := fmt.Sprintf(k.layout, port, channel, seq); k.got != want {
					t.Errorf("%s key = %q, want %q", k.name, k.got, want)
				}
			}
		}
	}
	for _, clientID := range []string{"07-tendermint-0", "", ids[3][1]} {
		for _, h := range []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64} {
			want := fmt.Sprintf("clients/%s/consensusStates/%d", clientID, h)
			if got := ibc.ConsensusStateKey(clientID, h); got != want {
				t.Errorf("consensus key = %q, want %q", got, want)
			}
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
	key := ibc.NextSequenceSendKey("transfer", memoChan)
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
