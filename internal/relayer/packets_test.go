package relayer

import (
	"slices"
	"testing"
	"time"

	"ibcbench/internal/eventindex"
	"ibcbench/internal/ibc"
	"ibcbench/internal/workload"
)

// fuzzMsg is one message of ours in the fuzzed relayer's hands.
type fuzzMsg struct {
	k     msgKind
	seq   uint64
	phase int // queued, in flight, or failed and awaiting its probe
}

const (
	queued = iota
	inFlight
	probing
)

// FuzzRelayerPackets drives one endpoint's packet table with random
// transitions against a model that keeps the same rows in a map and walks
// its sorted keys, over a destination chain that keeps its own ground
// truth: which packets it holds a receipt for, and which ones the source
// settled. Each op is two bytes: the first picks the transition and its
// variant, the second the sequence (1–16, sighted in any order and
// again; the table drops the leading rows of done packets as it grows).
// Receipts land only below a packet's timeout height, as the keeper
// rejects every recv from there on, and a probe answers the truth unless
// it fails. Besides agreeing with the model, the table must never time
// out a packet it knows received or whose recv of ours is in flight,
// never get a timeout confirmed for a packet the destination received
// (the double refund), and never finish one packet both by ack and by
// timeout.
func FuzzRelayerPackets(f *testing.F) {
	f.Add([]byte{0, 1, 2, 1, 3, 1, 1, 1, 2, 1, 15, 1})                                      // sight, flush, recv confirmed, ack sighted, flushed, confirmed
	f.Add([]byte{0, 2, 11, 0, 11, 0, 11, 0, 11, 0, 7, 0, 20, 2, 2, 2, 27, 2})               // expire, probe finds no receipt, time out
	f.Add([]byte{0, 3, 9, 3, 11, 0, 7, 0, 20, 3})                                           // the probe finds a receipt the relayer missed
	f.Add([]byte{0, 4, 2, 4, 4, 4, 5, 4, 2, 4, 4, 4, 0, 5, 2, 5, 6, 5, 0, 5})               // fail, retry, fail again; release, resight
	f.Add([]byte{0, 0, 2, 0, 3, 0, 1, 0, 2, 0, 15, 0, 0, 1, 2, 1, 3, 1, 0, 15, 1, 0, 0, 0}) // 1 acked, 2 received; 16 grows the table
	f.Fuzz(func(t *testing.T, data []byte) {
		var table packetTable
		model := map[uint64]*packetRow{}
		packets := map[uint64]*ibc.Packet{}
		var msgs []fuzzMsg
		var probed []uint64
		receipt, settled, acked, timedOut := map[uint64]bool{}, map[uint64]bool{}, map[uint64]bool{}, map[uint64]bool{}
		var h int64
		both := func(seq uint64, fn func(*packetRow)) {
			if model[seq] == nil {
				model[seq] = &packetRow{}
			}
			fn(table.row(seq))
			fn(model[seq])
		}
		take := func(k int, seq uint64, phase int) (fuzzMsg, bool) {
			for i, m := range msgs {
				if m.seq == seq && m.phase == phase && (k < 0 || m.k == msgKind(k)) {
					msgs = slices.Delete(msgs, i, i+1)
					return m, true
				}
			}
			return fuzzMsg{}, false
		}
		for ; len(data) >= 2; data = data[2:] {
			op, variant, seq := data[0]%12, data[0]/12, uint64(data[1]%16+1)
			if packets[seq] == nil {
				packets[seq] = &ibc.Packet{Sequence: seq, TimeoutHeight: int64(seq%4 + 1)}
			}
			p := packets[seq]
			open := h < p.TimeoutHeight // a recv may still land
			switch op {
			case 0: // send_packet sighting
				var got, want bool
				both(seq, func(row *packetRow) {
					b := row.sighted(p, !open)
					if row == model[seq] {
						want = b
					} else {
						got = b
					}
				})
				if got != want {
					t.Fatalf("sighted(%d) = %v, model %v", seq, got, want)
				}
				if got {
					msgs = append(msgs, fuzzMsg{kindRecv, seq, queued})
				}
			case 1: // write_acknowledgement sighting: someone's recv landed
				if !receipt[seq] && !open {
					continue
				}
				receipt[seq] = true
				var built bool
				both(seq, func(row *packetRow) {
					row.received()
					built = row.ackSighted()
				})
				if built {
					msgs = append(msgs, fuzzMsg{kindAck, seq, queued})
				}
			case 2: // flush: every queued message of seq is submitted
				for m, ok := take(-1, seq, queued); ok; m, ok = take(-1, seq, queued) {
					if m.k == kindRecv {
						both(seq, (*packetRow).submitted)
					}
					m.phase = inFlight
					msgs = append(msgs, m)
				}
			case 3: // confirmation of a message in flight
				m, ok := take(int(variant%3), seq, inFlight)
				switch {
				case !ok:
					continue
				case m.k == kindRecv && (receipt[seq] || !open), m.k != kindRecv && settled[seq]:
					msgs = append(msgs, fuzzMsg{m.k, seq, inFlight}) // it would fail; op 4 fails it
					continue
				case m.k == kindRecv:
					receipt[seq] = true
				case m.k == kindTimeout && receipt[seq]:
					t.Fatalf("sequence %d timed out on its source after the destination received it", seq)
				default:
					settled[seq] = true
				}
				both(seq, func(row *packetRow) { row.confirmed(m.k) })
			case 4: // a failed transaction
				m, ok := take(int(variant%3), seq, inFlight)
				if !ok {
					continue
				}
				var probe bool
				both(seq, func(row *packetRow) { probe = row.failed(m.k) })
				if probe {
					m.phase = probing
					msgs = append(msgs, m)
				}
			case 5: // the failed message's settlement probe answers
				m, ok := take(int(variant%3), seq, probing)
				if !ok {
					continue
				}
				truth := settled[seq]
				if m.k == kindRecv {
					truth = receipt[seq]
				}
				answer, canRetry := truth && variant%2 == 0, variant/3%2 == 0
				var retry bool
				both(seq, func(row *packetRow) { retry = row.probed(m.k, answer, canRetry) })
				if retry {
					m.phase = queued
					msgs = append(msgs, m)
				}
			case 6: // a batch given up and released
				m, ok := take(int(variant%3), seq, inFlight)
				if !ok {
					continue
				}
				both(seq, func(row *packetRow) { row.released(m.k, p) })
			case 7: // timeout check at the destination height reached so far
				var want []uint64
				for s, row := range model { // order-free: sorted below
					if (row.st == pktSeen || row.st == pktRecvBuilt || row.st == pktReleased) && h >= row.p.TimeoutHeight {
						want = append(want, s)
					}
				}
				slices.Sort(want)
				var got []uint64
				for s, ok := table.expired(0, h); ok; s, ok = table.expired(s+1, h) {
					got = append(got, s)
					if st := model[s].st; st >= pktReceived || st == pktRecvSubmitted || st == pktRecvRetried {
						t.Fatalf("sequence %d expired in state %d", s, st)
					}
					if variant%2 == 0 { // performance mode: probe
						both(s, func(row *packetRow) { row.st = pktTimeoutProbing })
						probed = append(probed, s)
					} else if receipt[s] { // full proofs: no absence proof
						both(s, (*packetRow).received)
					} else {
						both(s, func(row *packetRow) { row.st = pktTimeoutBuilt })
						msgs = append(msgs, fuzzMsg{kindTimeout, s, queued})
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("expired at height %d = %v, model %v", h, got, want)
				}
			case 8: // a timeout's receipt probe answers
				i := slices.Index(probed, seq)
				if i < 0 {
					continue
				}
				probed = slices.Delete(probed, i, i+1)
				ok := variant%3 != 0
				var build bool
				both(seq, func(row *packetRow) { build = row.timeoutProbed(ok, ok && receipt[seq]) })
				if build && receipt[seq] {
					t.Fatalf("sequence %d timed out though the destination holds its receipt", seq)
				}
				if build {
					msgs = append(msgs, fuzzMsg{kindTimeout, seq, queued})
				}
			case 9: // another relayer's recv lands unseen
				receipt[seq] = receipt[seq] || open
			case 10: // another relayer settles the packet on its source
				settled[seq] = settled[seq] || receipt[seq]
			default:
				h++
			}
			for s, row := range model { // order-free: pointwise comparison
				if s <= table.base {
					if row.p == nil || row.st != pktAcked && row.st != pktTimedOut {
						t.Fatalf("after op %d on %d: row %d dropped from the table in state %d", op, seq, s, row.st)
					}
				} else if got := *table.row(s); got != *row {
					t.Fatalf("after op %d on %d: row %d = %+v, model %+v", op, seq, s, got, *row)
				}
				acked[s] = acked[s] || row.st == pktAcked
				timedOut[s] = timedOut[s] || row.st == pktTimedOut
				if acked[s] && timedOut[s] {
					t.Fatalf("sequence %d finished both by ack and by timeout", s)
				}
			}
		}
	})
}

// TestSetsSeeOnlyTheEndpointChannel pins what the per-endpoint packet
// tables rest on: keyed by sequence alone, they may only ever see packets
// sourced on the endpoint's one channel. processBlock gets one
// transaction holding records for the relayed channel and for another
// channel with other sequences; only the relayed channel's reach a table.
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
	if row := r.a.packets.row(5); row.st != pktRecvBuilt || row.p != te.Sends[0] || r.b.packets.row(7).st != pktAckBuilt {
		t.Fatal("the relayed channel's records were not built")
	}
	for _, e := range []*endpoint{r.a, r.b} {
		for _, seq := range []uint64{6, 8} {
			if row := e.packets.row(seq); *row != (packetRow{}) {
				t.Fatalf("sequence %d of another channel reached %s's table: %+v", seq, e.chain.ID, *row)
			}
		}
	}
}

// TestSightingAfterReceivedBuildsARecv pins today's answer for a packet
// known received before its send was sighted: its ack was sighted first,
// and the failed batch that carried the ack gave the ack back, leaving
// the row received with no send record. Sighting the send then builds a
// recv the destination will refuse as redundant (ROADMAP item 5, R1).
// The fix changes this test: such a sighting records the send and builds
// nothing.
func TestSightingAfterReceivedBuildsARecv(t *testing.T) {
	p := &ibc.Packet{Sequence: 3, TimeoutHeight: 100}
	var row packetRow
	if !row.ackSighted() {
		t.Fatal("an ack sighted before its send was not built")
	}
	row.released(kindAck, p)
	if row.st != pktReceived || row.p != nil {
		t.Fatalf("after the ack's release the row is %+v, want received with no send record", row)
	}
	if !row.sighted(p, false) {
		t.Fatal("R1 is fixed: the send of a packet known received built no recv; update this test and ROADMAP item 5")
	}
	if row.st != pktReceived || row.p != p {
		t.Fatalf("after the sighting the row is %+v, want received with the send record", row)
	}
}
