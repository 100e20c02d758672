package eventindex

import (
	"testing"
	"time"

	"ibcbench/internal/abci"
	"ibcbench/internal/app"
	"ibcbench/internal/ibc"
	"ibcbench/internal/tendermint/store"
)

func sendEvent(p ibc.Packet) abci.Event { return abci.Event{Type: "send_packet", Data: &p} }

func ackEvent(p ibc.Packet, ack string) abci.Event {
	return abci.Event{Type: "write_acknowledgement", Data: &ibc.AckWrite{Packet: p, Ack: []byte(ack)}}
}

func txInfo(msgs int, code uint32, events ...abci.Event) *store.TxInfo {
	m := make([]app.Msg, msgs)
	for i := range m {
		m[i] = &ibc.MsgRecvPacket{}
	}
	return &store.TxInfo{
		Tx:     app.NewTx("signer", 0, 1, m),
		Result: abci.TxResult{Code: code, Events: events},
	}
}

func TestDecodePerChannel(t *testing.T) {
	p0 := ibc.Packet{SourceChannel: "channel-0", DestChannel: "channel-9", Sequence: 1}
	p1 := ibc.Packet{SourceChannel: "channel-1", DestChannel: "channel-8", Sequence: 4}
	ackP := ibc.Packet{SourceChannel: "channel-7", DestChannel: "channel-0", Sequence: 2}
	infos := []*store.TxInfo{
		txInfo(3, abci.CodeOK,
			sendEvent(p0), sendEvent(p1), ackEvent(ackP, "ACK")),
		txInfo(2, 4, sendEvent(p0)), // failed tx: invisible
		txInfo(5, abci.CodeOK),      // no packet work
	}
	be := Decode(3, 5*time.Second, infos)
	if be.Height != 3 || be.BlockTime != 5*time.Second {
		t.Fatalf("header = %+v", be)
	}
	// Failed tx msgs are excluded from the parse-cost count.
	if be.MsgCount != 8 {
		t.Fatalf("MsgCount = %d, want 8", be.MsgCount)
	}
	if len(be.Txs) != 1 {
		t.Fatalf("indexed txs = %d, want 1", len(be.Txs))
	}
	te := be.Txs[0]
	if got := te.SendPackets("channel-0"); len(got) != 1 || got[0].Sequence != 1 {
		t.Fatalf("sends on channel-0 = %+v", got)
	}
	if got := te.SendPackets("channel-1"); len(got) != 1 || got[0].Sequence != 4 {
		t.Fatalf("sends on channel-1 = %+v", got)
	}
	if got := te.SendPackets("channel-9"); got != nil {
		t.Fatalf("dest channel must not index sends: %+v", got)
	}
	acks := te.Acks("channel-0")
	if len(acks) != 1 || acks[0].Packet.Sequence != 2 || string(acks[0].Ack) != "ACK" {
		t.Fatalf("acks on channel-0 = %+v", acks)
	}
	if got := te.Acks("channel-7"); got != nil {
		t.Fatalf("source channel must not index ack writes: %+v", got)
	}
}

func TestDecodeOrderPreserved(t *testing.T) {
	var events []abci.Event
	for seq := uint64(1); seq <= 5; seq++ {
		events = append(events, sendEvent(ibc.Packet{SourceChannel: "channel-0", Sequence: seq}))
	}
	be := Decode(1, 0, []*store.TxInfo{txInfo(5, abci.CodeOK, events...)})
	got := be.Txs[0].SendPackets("channel-0")
	for i, p := range got {
		if p.Sequence != uint64(i+1) {
			t.Fatalf("packet order broken: %+v", got)
		}
	}
}

func TestIndexScanCounting(t *testing.T) {
	x := New()
	if x.Height() != 0 || x.At(1) != nil {
		t.Fatalf("fresh index = %+v", x)
	}
	be1 := x.IndexTxs(1, time.Second, nil)
	be2 := x.IndexTxs(2, 2*time.Second, []*store.TxInfo{txInfo(1, abci.CodeOK)})
	if x.ScanCount() != 2 || x.Height() != 2 {
		t.Fatalf("scans=%d height=%d", x.ScanCount(), x.Height())
	}
	if x.At(1) != be1 || x.At(2) != be2 || x.At(3) != nil || x.At(0) != nil {
		t.Fatal("At() does not return the indexed blocks")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-contiguous IndexTxs did not panic")
		}
	}()
	x.IndexTxs(9, 0, nil)
}

// TestDecodeSharesTheEventRecords pins that the index points at the
// records the events carry, grouped by channel in event order, instead of
// copying them: SendPackets(ch)[i] is the send_packet event's own
// *ibc.Packet, and Acks(ch)[i] the write_acknowledgement's *ibc.AckWrite.
func TestDecodeSharesTheEventRecords(t *testing.T) {
	events := []abci.Event{
		sendEvent(ibc.Packet{SourceChannel: "channel-1", Sequence: 7}),
		ackEvent(ibc.Packet{SourceChannel: "channel-5", DestChannel: "channel-1", Sequence: 3}, "A"),
		sendEvent(ibc.Packet{SourceChannel: "channel-0", Sequence: 2}),
		sendEvent(ibc.Packet{SourceChannel: "channel-1", Sequence: 8}),
		ackEvent(ibc.Packet{SourceChannel: "channel-4", DestChannel: "channel-0", Sequence: 9}, "B"),
	}
	te := Decode(1, 0, []*store.TxInfo{txInfo(5, abci.CodeOK, events...)}).Txs[0]
	for _, c := range []struct {
		ch   string
		want []*ibc.Packet
	}{
		{"channel-0", []*ibc.Packet{events[2].Data.(*ibc.Packet)}},
		{"channel-1", []*ibc.Packet{events[0].Data.(*ibc.Packet), events[3].Data.(*ibc.Packet)}},
	} {
		ch, want := c.ch, c.want
		got := te.SendPackets(ch)
		if len(got) != len(want) {
			t.Fatalf("SendPackets(%s) has %d records, want %d", ch, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("SendPackets(%s)[%d] = %p, not the event's own record %p", ch, i, got[i], want[i])
			}
		}
	}
	if got := te.Acks("channel-0"); len(got) != 1 || got[0] != events[4].Data.(*ibc.AckWrite) {
		t.Fatalf("Acks(channel-0) = %v, not the event's own record", got)
	}
	if got := te.Acks("channel-1"); len(got) != 1 || got[0] != events[1].Data.(*ibc.AckWrite) {
		t.Fatalf("Acks(channel-1) = %v, not the event's own record", got)
	}
	// Sends is grouped in channel-name order, and a run cannot be appended
	// into its neighbour.
	for i, want := range []uint64{2, 7, 8} {
		if got := te.Sends[i].Sequence; got != want {
			t.Fatalf("Sends[%d] has sequence %d, want %d (channel-name order)", i, got, want)
		}
	}
	if run := te.SendPackets("channel-0"); cap(run) != len(run) {
		t.Fatalf("SendPackets run has capacity %d past its length %d", cap(run), len(run))
	}
}
