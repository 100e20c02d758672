package pfm

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"ibcbench/internal/abci"
	"ibcbench/internal/app"
	"ibcbench/internal/ibc"
	"ibcbench/internal/ibc/transfer"
	"ibcbench/internal/merkle"
)

// --- manual-relay harness ----------------------------------------------------
//
// A minimal N-chain net without consensus or a scheduler: each chain is an
// app + keeper + transfer + pfm stack in performance mode (no proofs), and
// the test acts as the relayer, delivering MsgRecvPacket / MsgAcknowledgement
// / MsgTimeout transactions by hand. This isolates the middleware's packet
// flow from relayer pipelining (covered by the topo scenario tests).

type testChain struct {
	id     string
	app    *app.App
	keeper *ibc.Keeper
	xfer   *transfer.Module
	mw     *Middleware
	height int64
	links  int
	// clientFor maps this chain's channel -> the light client its packets
	// verify against.
	clientFor map[string]string
}

func newTestChain(id string) *testChain {
	a := app.New(id, false)
	k := ibc.NewKeeper(a)
	x := transfer.New(a, k)
	mw := New(k, x)
	a.CreateAccount("relayer")
	return &testChain{id: id, app: a, keeper: k, xfer: x, mw: mw,
		clientFor: make(map[string]string)}
}

func (c *testChain) ctx() *app.Context {
	return &app.Context{ChainID: c.id, State: c.app.State(), Bank: c.app.Bank(), App: c.app}
}

func set(ctx *app.Context, key []byte, v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	ctx.State.Set(key, raw)
}

// link seeds an open client/connection/channel pair between two chains,
// consuming each chain's next free ordinal (mirrors chain.Link).
func link(a, b *testChain) (chanOnA, chanOnB string) {
	ordA, ordB := a.links, b.links
	a.links++
	b.links++
	type side struct {
		host       *testChain
		peer       *testChain
		ord, cpOrd int
	}
	for _, s := range []side{{a, b, ordA, ordB}, {b, a, ordB, ordA}} {
		clientID := fmt.Sprintf("07-tendermint-%d", s.ord)
		connID := fmt.Sprintf("connection-%d", s.ord)
		chanID := fmt.Sprintf("channel-%d", s.ord)
		cpChan := fmt.Sprintf("channel-%d", s.cpOrd)
		ctx := s.host.ctx()
		set(ctx, ibc.AppendClientStateKey(nil, clientID), ibc.ClientState{ChainID: s.peer.id, LatestHeight: 1})
		set(ctx, ibc.AppendConnectionKey(nil, connID), ibc.ConnectionEnd{
			State: ibc.StateOpen, ClientID: clientID,
			CounterpartyConnID: fmt.Sprintf("connection-%d", s.cpOrd),
		})
		set(ctx, ibc.AppendChannelKey(nil, transfer.PortID, chanID), ibc.ChannelEnd{
			State: ibc.StateOpen, Ordering: ibc.Unordered,
			CounterpartyPort: transfer.PortID, CounterpartyChan: cpChan,
			ConnectionID: connID, Version: "ics20-1",
		})
		ctx.State.Set(ibc.AppendNextSequenceSendKey(nil, transfer.PortID, chanID), []byte("1"))
		ctx.State.CommitTx()
		s.host.clientFor[chanID] = clientID
	}
	return fmt.Sprintf("channel-%d", ordA), fmt.Sprintf("channel-%d", ordB)
}

// seedConsensus materializes a counterparty consensus state so proof
// checks (existence-only in performance mode) pass at proofHeight.
func (c *testChain) seedConsensus(channel string, height int64) {
	ctx := c.ctx()
	set(ctx, ibc.AppendConsensusStateKey(nil, c.clientFor[channel], height),
		ibc.ConsensusState{Root: merkle.Hash{}, Timestamp: time.Duration(height) * time.Second})
	ctx.State.CommitTx()
}

// deliver executes one transaction from signer and commits the block.
func (c *testChain) deliver(t *testing.T, signer string, msgs ...app.Msg) abci.TxResult {
	t.Helper()
	c.height++
	c.app.BeginBlock(c.height, time.Duration(c.height)*5*time.Second)
	seq, err := c.app.AccountSequence(signer)
	if err != nil {
		t.Fatalf("%s: signer %s: %v", c.id, signer, err)
	}
	tx := app.NewTx(signer, seq, uint64(c.height), msgs)
	res := c.app.DeliverTx(tx)
	c.app.Commit()
	return res
}

func (c *testChain) mustDeliver(t *testing.T, signer string, msgs ...app.Msg) abci.TxResult {
	t.Helper()
	res := c.deliver(t, signer, msgs...)
	if !res.IsOK() {
		t.Fatalf("%s: tx failed: %s", c.id, res.Log)
	}
	return res
}

func eventsOf(res abci.TxResult, typ string) []abci.Event {
	var out []abci.Event
	for _, ev := range res.Events {
		if ev.Type == typ {
			out = append(out, ev)
		}
	}
	return out
}

// packetOf returns the packet a send_packet or write_acknowledgement
// event carries.
func packetOf(t *testing.T, ev abci.Event) ibc.Packet {
	t.Helper()
	switch d := ev.Data.(type) {
	case ibc.Packet:
		return d
	case ibc.AckWrite:
		return d.Packet
	}
	t.Fatalf("%s event carries %T", ev.Type, ev.Data)
	return ibc.Packet{}
}

// ackOf returns the ack bytes a write_acknowledgement event carries.
func ackOf(ev abci.Event) []byte { return ev.Data.(ibc.AckWrite).Ack }

// relayRecv delivers a packet to dst, returning the tx result.
func relayRecv(t *testing.T, dst *testChain, p ibc.Packet) abci.TxResult {
	t.Helper()
	proofHeight := int64(2)
	dst.seedConsensus(p.DestChannel, proofHeight)
	return dst.deliver(t, "relayer", ibc.MsgRecvPacket{Packet: p, ProofHeight: proofHeight})
}

// relayAck returns a written acknowledgement to the packet source chain.
func relayAck(t *testing.T, src *testChain, p ibc.Packet, ack []byte) abci.TxResult {
	t.Helper()
	proofHeight := int64(2)
	src.seedConsensus(p.SourceChannel, proofHeight)
	return src.deliver(t, "relayer", ibc.MsgAcknowledgement{Packet: p, Ack: ack, ProofHeight: proofHeight})
}

func bal(c *testChain, account, denom string) uint64 {
	return c.app.Bank().Balance(account, denom)
}

// lineNet builds A - B - C. Channel layout (ordinal per chain):
//
//	A: channel-0 -> B        B: channel-0 -> A, channel-1 -> C
//	C: channel-0 -> B
func lineNet(t *testing.T) (a, b, c *testChain) {
	a, b, c = newTestChain("chain-a"), newTestChain("chain-b"), newTestChain("chain-c")
	link(a, b)
	link(b, c)
	return a, b, c
}

// --- memo --------------------------------------------------------------------

func TestMemoRoundTripAndValidation(t *testing.T) {
	f := &ForwardMetadata{
		Receiver: "carol", Port: "transfer", Channel: "channel-1",
		Next: &ForwardMetadata{Receiver: "dave", Port: "transfer", Channel: "channel-2"},
	}
	memo := Memo(f)
	got, ok, err := ParseMemo(memo)
	if err != nil || !ok {
		t.Fatalf("parse: ok=%v err=%v", ok, err)
	}
	if got.Channel != "channel-1" || got.Next == nil || got.Next.Receiver != "dave" {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if _, ok, err := ParseMemo(""); ok || err != nil {
		t.Fatal("empty memo should pass through")
	}
	if _, ok, err := ParseMemo("just a note"); ok || err != nil {
		t.Fatal("plain memo should pass through")
	}
	if _, ok, err := ParseMemo(`{"forward":{"receiver":"x"}}`); ok || err == nil {
		t.Fatal("forward memo without channel must be rejected")
	}
	if Memo(nil) != "" {
		t.Fatal("nil metadata should serialize to empty memo")
	}
}

// --- voucher-of-a-voucher mint path and unwind -------------------------------

// TestForwardMintPath pins the A -> B -> C flow: one user transfer on A,
// the middleware on B escrows the voucher and emits hop 2 in the same
// block (async ack), C mints the nested trace denom, and the success ack
// propagates B -> A only after C received.
func TestForwardMintPath(t *testing.T) {
	a, b, c := lineNet(t)
	a.app.CreateAccount("alice", app.Coin{Denom: "uatom", Amount: 100})

	memo := Memo(&ForwardMetadata{Receiver: "carol", Port: "transfer", Channel: "channel-1"})
	res := a.mustDeliver(t, "alice", transfer.MsgTransfer{
		Sender: "alice", Receiver: ModuleAccount,
		Token:      app.Coin{Denom: "uatom", Amount: 5},
		SourcePort: "transfer", SourceChannel: "channel-0",
		TimeoutHeight: 1000, Memo: memo, Nonce: 1,
	})
	sends := eventsOf(res, "send_packet")
	if len(sends) != 1 {
		t.Fatalf("send events = %d", len(sends))
	}
	p1 := packetOf(t, sends[0])
	if bal(a, "escrow/transfer/channel-0", "uatom") != 5 {
		t.Fatal("origin escrow not funded")
	}

	// B receives: forwards in the same block, ack held open.
	resB := relayRecv(t, b, p1)
	if !resB.IsOK() {
		t.Fatalf("recv on B failed: %s", resB.Log)
	}
	if n := len(eventsOf(resB, "write_acknowledgement")); n != 0 {
		t.Fatalf("B wrote %d acks; forward must hold the ack open", n)
	}
	hop2 := eventsOf(resB, "send_packet")
	if len(hop2) != 1 {
		t.Fatalf("B emitted %d send_packets, want the forwarded hop", len(hop2))
	}
	p2 := packetOf(t, hop2[0])
	if p2.SourceChannel != "channel-1" {
		t.Fatalf("hop 2 left through %s", p2.SourceChannel)
	}
	voucherB := "transfer/channel-0/uatom"
	if got := bal(b, "escrow/transfer/channel-1", voucherB); got != 5 {
		t.Fatalf("B escrow = %d, want 5", got)
	}
	if got := bal(b, ModuleAccount, voucherB); got != 0 {
		t.Fatalf("forwarder retains %d", got)
	}
	if fs := b.mw.Stats(); fs.Forwarded != 1 {
		t.Fatalf("forwarded = %d", fs.Forwarded)
	}

	// C receives: nested trace denom minted to the final receiver.
	resC := relayRecv(t, c, p2)
	if !resC.IsOK() {
		t.Fatalf("recv on C failed: %s", resC.Log)
	}
	acksC := eventsOf(resC, "write_acknowledgement")
	if len(acksC) != 1 {
		t.Fatalf("C wrote %d acks", len(acksC))
	}
	nested := "transfer/channel-0/transfer/channel-0/uatom"
	if got := bal(c, "carol", nested); got != 5 {
		t.Fatalf("carol nested voucher = %d, want 5", got)
	}
	if got := c.app.Bank().Supply(nested); got != 5 {
		t.Fatalf("C nested supply = %d", got)
	}

	// Ack hop 2 back to B: the middleware releases the origin's ack.
	resAckB := relayAck(t, b, p2, ackOf(acksC[0]))
	if !resAckB.IsOK() {
		t.Fatalf("ack on B failed: %s", resAckB.Log)
	}
	acksB := eventsOf(resAckB, "write_acknowledgement")
	if len(acksB) != 1 {
		t.Fatalf("B released %d acks, want the origin's", len(acksB))
	}
	if orig := packetOf(t, acksB[0]); orig.Sequence != p1.Sequence || orig.DestChannel != p1.DestChannel {
		t.Fatalf("B acked the wrong packet: %+v", orig)
	}
	var ack ibc.Acknowledgement
	if err := json.Unmarshal(ackOf(acksB[0]), &ack); err != nil || !ack.Success() {
		t.Fatalf("origin ack not success: %s", ackOf(acksB[0]))
	}

	// And the origin settles.
	if res := relayAck(t, a, p1, ackOf(acksB[0])); !res.IsOK() {
		t.Fatalf("ack on A failed: %s", res.Log)
	}
	if got := bal(a, "alice", "uatom"); got != 95 {
		t.Fatalf("alice = %d, want 95", got)
	}
	if fs := b.mw.Stats(); fs.Completed != 1 {
		t.Fatalf("completed = %d", fs.Completed)
	}
}

// TestFullUnwindRestoresOrigin runs the complete round trip
// A -> B -> C then C -> B -> A and checks the original denom and all
// supplies are restored on every chain (the voucher-of-a-voucher unwind).
func TestFullUnwindRestoresOrigin(t *testing.T) {
	a, b, c := lineNet(t)
	a.app.CreateAccount("alice", app.Coin{Denom: "uatom", Amount: 100})
	c.app.CreateAccount("carol")

	// Outbound: A -> B -> C.
	res := a.mustDeliver(t, "alice", transfer.MsgTransfer{
		Sender: "alice", Receiver: ModuleAccount,
		Token:      app.Coin{Denom: "uatom", Amount: 9},
		SourcePort: "transfer", SourceChannel: "channel-0",
		TimeoutHeight: 1000,
		Memo:          Memo(&ForwardMetadata{Receiver: "carol", Port: "transfer", Channel: "channel-1"}),
		Nonce:         1,
	})
	p1 := packetOf(t, eventsOf(res, "send_packet")[0])
	resB := relayRecv(t, b, p1)
	p2 := packetOf(t, eventsOf(resB, "send_packet")[0])
	resC := relayRecv(t, c, p2)
	ackC := eventsOf(resC, "write_acknowledgement")[0]
	resAckB := relayAck(t, b, p2, ackOf(ackC))
	ackB := eventsOf(resAckB, "write_acknowledgement")[0]
	relayAck(t, a, p1, ackOf(ackB))

	nested := "transfer/channel-0/transfer/channel-0/uatom"
	voucherB := "transfer/channel-0/uatom"

	// Return: C -> B -> A, unwinding the trace one hop per chain.
	resR := c.mustDeliver(t, "carol", transfer.MsgTransfer{
		Sender: "carol", Receiver: ModuleAccount,
		Token:      app.Coin{Denom: nested, Amount: 9},
		SourcePort: "transfer", SourceChannel: "channel-0",
		TimeoutHeight: 1000,
		Memo:          Memo(&ForwardMetadata{Receiver: "alice", Port: "transfer", Channel: "channel-0"}),
		Nonce:         2,
	})
	p3 := packetOf(t, eventsOf(resR, "send_packet")[0])
	resB2 := relayRecv(t, b, p3)
	if !resB2.IsOK() {
		t.Fatalf("return recv on B failed: %s", resB2.Log)
	}
	p4 := packetOf(t, eventsOf(resB2, "send_packet")[0])
	if p4.SourceChannel != "channel-0" {
		t.Fatalf("return hop left through %s", p4.SourceChannel)
	}
	resA2 := relayRecv(t, a, p4)
	if !resA2.IsOK() {
		t.Fatalf("return recv on A failed: %s", resA2.Log)
	}
	ackA2 := eventsOf(resA2, "write_acknowledgement")[0]
	resAckB2 := relayAck(t, b, p4, ackOf(ackA2))
	ackB2 := eventsOf(resAckB2, "write_acknowledgement")[0]
	if res := relayAck(t, c, p3, ackOf(ackB2)); !res.IsOK() {
		t.Fatalf("final ack on C failed: %s", res.Log)
	}

	// Original denom restored to the original holder...
	if got := bal(a, "alice", "uatom"); got != 100 {
		t.Fatalf("alice = %d, want 100", got)
	}
	// ...every escrow empty...
	for chain, escrows := range map[*testChain][]string{
		a: {"escrow/transfer/channel-0"},
		b: {"escrow/transfer/channel-0", "escrow/transfer/channel-1"},
		c: {"escrow/transfer/channel-0"},
	} {
		for _, esc := range escrows {
			for _, d := range []string{"uatom", voucherB, nested} {
				if got := bal(chain, esc, d); got != 0 {
					t.Fatalf("%s %s holds %d %s", chain.id, esc, got, d)
				}
			}
		}
	}
	// ...and every voucher supply burned back to zero on all three chains.
	for _, chain := range []*testChain{a, b, c} {
		for _, d := range []string{voucherB, nested} {
			if got := chain.app.Bank().Supply(d); got != 0 {
				t.Fatalf("%s supply of %s = %d, want 0", chain.id, d, got)
			}
		}
	}
	if got := a.app.Bank().Supply("uatom"); got != 100 {
		t.Fatalf("native supply = %d", got)
	}
}

// TestForwardTimeoutRefundsOrigin pins the failure unwind: a timeout on
// the last hop refunds the sender on the origin chain with all
// intermediate escrows and supplies restored.
func TestForwardTimeoutRefundsOrigin(t *testing.T) {
	a, b, _ := lineNet(t)
	a.app.CreateAccount("alice", app.Coin{Denom: "uatom", Amount: 100})

	res := a.mustDeliver(t, "alice", transfer.MsgTransfer{
		Sender: "alice", Receiver: ModuleAccount,
		Token:      app.Coin{Denom: "uatom", Amount: 7},
		SourcePort: "transfer", SourceChannel: "channel-0",
		TimeoutHeight: 1000,
		Memo:          Memo(&ForwardMetadata{Receiver: "carol", Port: "transfer", Channel: "channel-1", TimeoutBlocks: 10}),
		Nonce:         1,
	})
	p1 := packetOf(t, eventsOf(res, "send_packet")[0])
	resB := relayRecv(t, b, p1)
	p2 := packetOf(t, eventsOf(resB, "send_packet")[0])
	if p2.TimeoutHeight != 11 { // client height 1 + memo's 10 blocks
		t.Fatalf("hop timeout height = %d", p2.TimeoutHeight)
	}

	// The hop never reaches C; its timeout elapses and a relayer proves
	// non-receipt at a height past the deadline.
	b.seedConsensus("channel-1", p2.TimeoutHeight)
	resT := b.deliver(t, "relayer", ibc.MsgTimeout{Packet: p2, ProofHeight: p2.TimeoutHeight})
	if !resT.IsOK() {
		t.Fatalf("timeout on B failed: %s", resT.Log)
	}
	acks := eventsOf(resT, "write_acknowledgement")
	if len(acks) != 1 {
		t.Fatalf("B wrote %d acks on unwind", len(acks))
	}
	var ack ibc.Acknowledgement
	if err := json.Unmarshal(ackOf(acks[0]), &ack); err != nil || ack.Success() {
		t.Fatalf("unwind must write an error ack, got %s", ackOf(acks[0]))
	}
	if fs := b.mw.Stats(); fs.Unwound != 1 {
		t.Fatalf("unwound = %d", fs.Unwound)
	}

	// Intermediate chain fully restored: no voucher supply, empty escrow
	// and forwarding account.
	voucherB := "transfer/channel-0/uatom"
	if got := b.app.Bank().Supply(voucherB); got != 0 {
		t.Fatalf("B voucher supply = %d after unwind", got)
	}
	for _, acct := range []string{ModuleAccount, "escrow/transfer/channel-1"} {
		if got := bal(b, acct, voucherB); got != 0 {
			t.Fatalf("%s holds %d after unwind", acct, got)
		}
	}

	// The error ack reaches the origin: sender refunded, escrow released.
	if res := relayAck(t, a, p1, ackOf(acks[0])); !res.IsOK() {
		t.Fatalf("error ack on A failed: %s", res.Log)
	}
	if got := bal(a, "alice", "uatom"); got != 100 {
		t.Fatalf("alice = %d, want 100", got)
	}
	if got := bal(a, "escrow/transfer/channel-0", "uatom"); got != 0 {
		t.Fatalf("origin escrow = %d", got)
	}
	_, _, _, refunded := a.xfer.Stats()
	if refunded != 1 {
		t.Fatalf("origin refunds = %d", refunded)
	}
}

// TestNonForwardPacketsDelegate checks plain transfers behave exactly as
// without the middleware.
func TestNonForwardPacketsDelegate(t *testing.T) {
	a, b, _ := lineNet(t)
	a.app.CreateAccount("alice", app.Coin{Denom: "uatom", Amount: 50})
	res := a.mustDeliver(t, "alice", transfer.MsgTransfer{
		Sender: "alice", Receiver: "bob",
		Token:      app.Coin{Denom: "uatom", Amount: 3},
		SourcePort: "transfer", SourceChannel: "channel-0",
		TimeoutHeight: 1000, Nonce: 1,
	})
	p := packetOf(t, eventsOf(res, "send_packet")[0])
	resB := relayRecv(t, b, p)
	if !resB.IsOK() {
		t.Fatalf("recv failed: %s", resB.Log)
	}
	// Synchronous ack, voucher minted straight to the receiver.
	if len(eventsOf(resB, "write_acknowledgement")) != 1 {
		t.Fatal("plain packet must ack synchronously")
	}
	if len(eventsOf(resB, "send_packet")) != 0 {
		t.Fatal("plain packet must not forward")
	}
	if got := bal(b, "bob", "transfer/channel-0/uatom"); got != 3 {
		t.Fatalf("bob voucher = %d", got)
	}
	if fs := b.mw.Stats(); fs.Forwarded != 0 {
		t.Fatalf("forwarded = %d", fs.Forwarded)
	}
}

// TestForwardToBadChannelRefusesBeforeFunds pins the refusal ordering: a
// forward memo naming a missing (or unopened) channel must produce an
// error ack BEFORE any fund movement, leaving the intermediate chain
// untouched and refunding the origin sender.
func TestForwardToBadChannelRefusesBeforeFunds(t *testing.T) {
	a, b, _ := lineNet(t)
	a.app.CreateAccount("alice", app.Coin{Denom: "uatom", Amount: 100})

	res := a.mustDeliver(t, "alice", transfer.MsgTransfer{
		Sender: "alice", Receiver: ModuleAccount,
		Token:      app.Coin{Denom: "uatom", Amount: 4},
		SourcePort: "transfer", SourceChannel: "channel-0",
		TimeoutHeight: 1000,
		Memo:          Memo(&ForwardMetadata{Receiver: "x", Port: "transfer", Channel: "channel-9"}),
		Nonce:         1,
	})
	p1 := packetOf(t, eventsOf(res, "send_packet")[0])
	resB := relayRecv(t, b, p1)
	if !resB.IsOK() {
		t.Fatalf("recv tx failed outright: %s", resB.Log)
	}
	acks := eventsOf(resB, "write_acknowledgement")
	if len(acks) != 1 {
		t.Fatalf("B wrote %d acks, want one error ack", len(acks))
	}
	var ack ibc.Acknowledgement
	if err := json.Unmarshal(ackOf(acks[0]), &ack); err != nil || ack.Success() {
		t.Fatalf("want error ack, got %s", ackOf(acks[0]))
	}
	// Nothing moved on B: no mint, no escrow, no forwarder balance.
	voucher := "transfer/channel-0/uatom"
	if got := b.app.Bank().Supply(voucher); got != 0 {
		t.Fatalf("B minted %d before refusing", got)
	}
	if got := bal(b, ModuleAccount, voucher); got != 0 {
		t.Fatalf("forwarder holds %d", got)
	}
	// Origin refunds on the error ack.
	if res := relayAck(t, a, p1, ackOf(acks[0])); !res.IsOK() {
		t.Fatalf("error ack on A failed: %s", res.Log)
	}
	if got := bal(a, "alice", "uatom"); got != 100 {
		t.Fatalf("alice = %d, want 100", got)
	}
}

// TestUndecodableForwardMemoRefused: a memo with forward intent but
// broken JSON must be refused, not delivered as a plain transfer to the
// intermediate chain's receiver field.
func TestUndecodableForwardMemoRefused(t *testing.T) {
	if _, ok, err := ParseMemo(`{"forward":{"receiver":"carol","port":"transfer"`); ok || err == nil {
		t.Fatal("truncated forward memo must be rejected")
	}

	a, b, _ := lineNet(t)
	a.app.CreateAccount("alice", app.Coin{Denom: "uatom", Amount: 100})
	res := a.mustDeliver(t, "alice", transfer.MsgTransfer{
		Sender: "alice", Receiver: ModuleAccount,
		Token:      app.Coin{Denom: "uatom", Amount: 2},
		SourcePort: "transfer", SourceChannel: "channel-0",
		TimeoutHeight: 1000,
		Memo:          `{"forward":{"receiver":"carol"`,
		Nonce:         1,
	})
	p1 := packetOf(t, eventsOf(res, "send_packet")[0])
	resB := relayRecv(t, b, p1)
	acks := eventsOf(resB, "write_acknowledgement")
	if len(acks) != 1 {
		t.Fatalf("B wrote %d acks", len(acks))
	}
	var ack ibc.Acknowledgement
	if err := json.Unmarshal(ackOf(acks[0]), &ack); err != nil || ack.Success() {
		t.Fatalf("want error ack for undecodable forward memo, got %s", ackOf(acks[0]))
	}
	// The intermediate receiver got nothing.
	if got := bal(b, ModuleAccount, "transfer/channel-0/uatom"); got != 0 {
		t.Fatalf("funds delivered despite refusal: %d", got)
	}
}

// The in-flight record's key is built by append; it is pinned against the
// fmt formatting it replaced, after a prefix the builder must keep.
func TestKeysMatchFmtFormatting(t *testing.T) {
	long := strings.Repeat("channel-", 20)
	for _, id := range [][2]string{{"transfer", "channel-0"}, {"", ""}, {"a/b", "channel-4294967295"}, {"transfer", long}} {
		for _, seq := range []uint64{0, 1, 12345, math.MaxUint64} {
			var b [app.KeyBufLen]byte
			want := fmt.Sprintf("dst/pfm/inflight/ports/%s/channels/%s/sequences/%d", id[0], id[1], seq)
			if got := appendInFlightKey(append(b[:0], "dst/"...), id[0], id[1], seq); string(got) != want {
				t.Errorf("in-flight key = %q, want %q", got, want)
			}
		}
	}
}
