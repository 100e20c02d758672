package relayer

import (
	"encoding/binary"
	"math/bits"
	"testing"
	"time"

	"ibcbench/internal/eventindex"
	"ibcbench/internal/ibc"
	"ibcbench/internal/workload"
)

// FuzzSeqSet diffs seqSet against a map[uint64]bool model. Each op is
// three bytes: the low two bits of the first pick add, has or delete
// (has twice as often), the next bit moves the sequence far past the
// set's end, and the other two bytes are the sequence — so sequence 0,
// the 63/64 word boundary and a delete past the end all come up.
func FuzzSeqSet(f *testing.F) {
	op := func(kind byte, seq uint16) []byte {
		return binary.BigEndian.AppendUint16([]byte{kind}, seq)
	}
	cat := func(ops ...[]byte) []byte {
		var b []byte
		for _, o := range ops {
			b = append(b, o...)
		}
		return b
	}
	const add, has, del, far = 0, 1, 2, 4
	f.Add(cat(op(add, 0), op(has, 0), op(del, 0), op(has, 0)))
	f.Add(cat(op(add, 63), op(add, 64), op(has, 63), op(has, 64), op(has, 65), op(del, 63), op(has, 64)))
	f.Add(cat(op(del, 500), op(has, 500), op(add|far, 7), op(has|far, 7), op(del|far, 9), op(has, 7)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s seqSet
		model := map[uint64]bool{}
		for ; len(data) >= 3; data = data[3:] {
			seq := uint64(binary.BigEndian.Uint16(data[1:]))
			if data[0]&far != 0 {
				seq += 1 << 20
			}
			switch data[0] & 3 {
			case add:
				s.add(seq)
				model[seq] = true
			case del:
				s.del(seq)
				delete(model, seq)
			default:
				if got := s.has(seq); got != model[seq] {
					t.Fatalf("has(%d) = %v, model says %v", seq, got, model[seq])
				}
			}
		}
		n := 0
		for _, w := range s {
			n += bits.OnesCount64(w)
		}
		if n != len(model) {
			t.Fatalf("set holds %d sequences, model %d", n, len(model))
		}
		for seq := range model { // order-free: membership checks
			if !s.has(seq) {
				t.Fatalf("set lost sequence %d", seq)
			}
		}
	})
}

// TestSetsSeeOnlyTheEndpointChannel pins what the per-endpoint sets rest
// on: keyed by sequence alone, they may only ever see packets sourced on
// the endpoint's one channel. processBlock gets one transaction holding
// records for the relayed channel and for another channel with other
// sequences; only the relayed channel's reach a set.
func TestSetsSeeOnlyTheEndpointChannel(t *testing.T) {
	tb := newTestbed(3, false)
	r := New(tb.Sched, tb.RNG, Config{Name: "hermes-sets"}, tb.Pair)
	// Not started: with no frames the relayer has seen height 0 on both
	// chains, so every built message waits in its outbox and nothing is
	// submitted or released.
	gen := workload.NewOnChannel(tb.Sched, tb.RNG, tb.Pair.A, tb.Pair.B, tb.Pair.ChannelAB, r.EndpointRPC(tb.Pair.A.ID), nil)
	tb.Start()
	tb.Sched.At(time.Second, func() { gen.SubmitBatch(1) })
	if err := tb.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	// A committed transaction to pull, so the data pull succeeds.
	var info *eventindex.TxEvents
	for h := int64(1); h <= tb.Pair.A.Events.Height() && info == nil; h++ {
		if txs := tb.Pair.A.Events.At(h).Txs; len(txs) > 0 {
			info = txs[0]
		}
	}
	if info == nil {
		t.Fatal("the transfer never committed")
	}
	own, other := tb.Pair.ChannelAB, "channel-99"
	if own >= other {
		t.Fatalf("channel %q must sort before %q", own, other)
	}
	te := &eventindex.TxEvents{
		Info: info.Info,
		Sends: []*ibc.Packet{
			{SourcePort: "transfer", SourceChannel: own, DestPort: "transfer", DestChannel: tb.Pair.ChannelBA, Sequence: 5},
			{SourcePort: "transfer", SourceChannel: other, DestPort: "transfer", DestChannel: "channel-98", Sequence: 6},
		},
		AckWrites: []*ibc.AckWrite{
			{Packet: ibc.Packet{SourcePort: "transfer", SourceChannel: tb.Pair.ChannelBA, DestPort: "transfer", DestChannel: own, Sequence: 7}, Ack: []byte("{}")},
			{Packet: ibc.Packet{SourcePort: "transfer", SourceChannel: "channel-98", DestPort: "transfer", DestChannel: other, Sequence: 8}, Ack: []byte("{}")},
		},
	}
	be := &eventindex.BlockEvents{Height: info.Info.Height, MsgCount: 4, Txs: []*eventindex.TxEvents{te}}
	tb.Sched.After(0, func() { r.processBlock(r.a, r.b, be) })
	if err := tb.Run(tb.Sched.Now() + time.Minute); err != nil {
		t.Fatal(err)
	}
	if !r.a.recvSeen.has(5) || r.a.pending[5] != te.Sends[0] || !r.b.ackSeen.has(7) {
		t.Fatal("the relayed channel's records were not built")
	}
	for _, e := range []*endpoint{r.a, r.b} {
		for _, seq := range []uint64{6, 8} {
			if e.recvSeen.has(seq) || e.ackSeen.has(seq) || e.pending[seq] != nil {
				t.Fatalf("sequence %d of another channel reached %s's sets", seq, e.chain.ID)
			}
		}
	}
}
