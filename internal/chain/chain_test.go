package chain

import (
	"strings"
	"testing"
	"time"

	"ibcbench/internal/abci"
	"ibcbench/internal/app"
	"ibcbench/internal/ibc"
	"ibcbench/internal/ibc/transfer"
	"ibcbench/internal/netem"
	"ibcbench/internal/sim"
	"ibcbench/internal/tendermint/types"
)

func newTestChain(t *testing.T, sched *sim.Scheduler, net *netem.Network, id string) *Chain {
	t.Helper()
	return New(sched, net, Config{ChainID: id})
}

func harness(t *testing.T) (*sim.Scheduler, *netem.Network) {
	t.Helper()
	sched := sim.NewScheduler()
	rng := sim.NewRNG(1)
	lan := netem.Config{OneWayLatency: 200 * time.Microsecond, LoopbackLatency: 50 * time.Microsecond, JitterRelStd: 0.05}
	return sched, netem.New(sched, rng, lan)
}

func TestNewAssemblesComponents(t *testing.T) {
	sched, net := harness(t)
	c := newTestChain(t, sched, net, "test-0")
	if c.App == nil || c.Keeper == nil || c.Transfer == nil ||
		c.Pool == nil || c.Store == nil || c.Engine == nil || c.RPC == nil {
		t.Fatalf("chain incompletely assembled: %+v", c)
	}
	if c.ID != "test-0" {
		t.Fatalf("ID = %q", c.ID)
	}
	st := c.ClientStateFor()
	if st.ChainID != "test-0" || len(st.Validators) == 0 {
		t.Fatalf("client state: %+v", st)
	}
}

func channelEnd(t *testing.T, c *Chain, port, channel string) ibc.ChannelEnd {
	t.Helper()
	ctx := &app.Context{ChainID: c.ID, State: c.App.State(), Bank: c.App.Bank(), App: c.App}
	end, err := c.Keeper.Channel(ctx, port, channel)
	if err != nil {
		t.Fatalf("%s: channel %s/%s not seeded: %v", c.ID, port, channel, err)
	}
	return end
}

func TestLinkSeedsBothEnds(t *testing.T) {
	sched, net := harness(t)
	a := newTestChain(t, sched, net, "a")
	b := newTestChain(t, sched, net, "b")
	p := Link(a, b)
	if p.ChannelAB != "channel-0" || p.ChannelBA != "channel-0" {
		t.Fatalf("first link channels: %q / %q", p.ChannelAB, p.ChannelBA)
	}
	endA := channelEnd(t, a, p.Port, p.ChannelAB)
	endB := channelEnd(t, b, p.Port, p.ChannelBA)
	if endA.State != ibc.StateOpen || endB.State != ibc.StateOpen {
		t.Fatalf("channel ends not open: %+v / %+v", endA, endB)
	}
	if endA.CounterpartyChan != p.ChannelBA || endB.CounterpartyChan != p.ChannelAB {
		t.Fatalf("counterparty channels wrong: %+v / %+v", endA, endB)
	}
	_, onA := a.App.State().Get(ibc.AppendClientStateKey(nil, p.ClientOnA))
	if _, onB := b.App.State().Get(ibc.AppendClientStateKey(nil, p.ClientOnB)); !onA || !onB {
		t.Fatal("clients not seeded")
	}
}

// TestLinkOrdinalsAdvancePerChain is the multi-channel property hub and
// mesh topologies rely on: a chain's second link gets fresh identifiers.
func TestLinkOrdinalsAdvancePerChain(t *testing.T) {
	sched, net := harness(t)
	hub := newTestChain(t, sched, net, "hub")
	s1 := newTestChain(t, sched, net, "s1")
	s2 := newTestChain(t, sched, net, "s2")
	p1 := Link(hub, s1)
	p2 := Link(hub, s2)
	if p1.ChannelAB != "channel-0" || p2.ChannelAB != "channel-1" {
		t.Fatalf("hub-side channels %q then %q, want channel-0 then channel-1",
			p1.ChannelAB, p2.ChannelAB)
	}
	if p2.ChannelBA != "channel-0" {
		t.Fatalf("fresh spoke got %q, want channel-0", p2.ChannelBA)
	}
	if p1.ClientOnA == p2.ClientOnA {
		t.Fatalf("hub reused client %q for both links", p1.ClientOnA)
	}
	// Cross-references must pair each hub channel with its own spoke.
	end := channelEnd(t, hub, p2.Port, "channel-1")
	if end.CounterpartyChan != "channel-0" {
		t.Fatalf("hub channel-1 counterparty = %q", end.CounterpartyChan)
	}
}

func TestAddRPCNodeDistinctHosts(t *testing.T) {
	sched, net := harness(t)
	c := newTestChain(t, sched, net, "c")
	n1 := c.AddRPCNode(primaryClientTimeout)
	n2 := c.AddRPCNode(primaryClientTimeout)
	if n1 == n2 {
		t.Fatal("AddRPCNode returned the same node twice")
	}
	if c.RPC == n1 || c.RPC == n2 {
		t.Fatal("full nodes aliased the primary RPC server")
	}
}

// The paper's testbed in miniature: two linked chains on one WAN.
func TestTestbedProducesBlocks(t *testing.T) {
	sched := sim.NewScheduler()
	net := netem.New(sched, sim.NewRNG(3), netem.DefaultWAN())
	pair := Link(newTestChain(t, sched, net, "ibc-0"), newTestChain(t, sched, net, "ibc-1"))
	pair.A.Start()
	pair.B.Start()
	if err := sched.RunUntil(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if pair.A.Store.Height() < 3 || pair.B.Store.Height() < 3 {
		t.Fatalf("heights %d / %d after 30s", pair.A.Store.Height(), pair.B.Store.Height())
	}
}

// deliverBlock executes msgs as the one tx of block h on c's app,
// outside consensus, and returns the tx's result.
func deliverBlock(t *testing.T, c *Chain, h int64, signer string, msgs ...app.Msg) abci.TxResult {
	t.Helper()
	seq, err := c.App.AccountSequence(signer)
	if err != nil {
		t.Fatal(err)
	}
	tx := app.NewTx(signer, seq, uint64(h), msgs)
	tx.GasLimit = 1 << 40
	c.App.BeginBlock(h, time.Duration(h)*5*time.Second)
	res := c.App.DeliverTx(tx)
	c.App.EndBlock(h)
	c.App.Commit()
	return res
}

// headerOf is a header of c at height h, for a counterparty's light
// client; performance mode trusts it unsigned.
func headerOf(c *Chain, h int64) ibc.HeaderBundle {
	return ibc.HeaderBundle{Header: types.Header{ChainID: c.ID, Height: h, Time: time.Duration(h) * 5 * time.Second}}
}

// TestTimeoutOfReceivedPacketRefused submits a MsgTimeout for a packet
// the destination has received, straight to the source chain: no
// relayer builds it, so no receipt probe stands in the way. In
// performance mode there is no absence proof to refute it; the keeper
// checks the counterparty's committed state, which holds the receipt,
// and refuses the timeout instead of refunding the sender a second time.
func TestTimeoutOfReceivedPacketRefused(t *testing.T) {
	sched, net := harness(t)
	a := newTestChain(t, sched, net, "a")
	b := newTestChain(t, sched, net, "b")
	p := Link(a, b)
	a.App.CreateAccount("alice", app.Coin{Denom: "uatom", Amount: 1000})
	for _, c := range []*Chain{a, b} {
		c.App.CreateAccount("relayer", app.Coin{Denom: "stake", Amount: 1 << 40})
	}

	res := deliverBlock(t, a, 1, "alice", &transfer.MsgTransfer{
		Sender: "alice", Receiver: "bob", Token: app.Coin{Denom: "uatom", Amount: 77},
		SourcePort: p.Port, SourceChannel: p.ChannelAB, TimeoutHeight: 3,
	})
	if !res.IsOK() {
		t.Fatalf("transfer: %s", res.Log)
	}
	var packet *ibc.Packet
	for _, ev := range res.Events {
		if pk, ok := ev.Data.(*ibc.Packet); ok {
			packet = pk
		}
	}
	if packet == nil {
		t.Fatal("transfer emitted no packet")
	}

	// b receives the packet at height 2, before its timeout height.
	if res := deliverBlock(t, b, 1, "relayer", &ibc.MsgUpdateClient{ClientID: p.ClientOnB, Bundle: headerOf(a, 2)}); !res.IsOK() {
		t.Fatalf("update b's client: %s", res.Log)
	}
	if res := deliverBlock(t, b, 2, "relayer", &ibc.MsgRecvPacket{Packet: *packet, ProofHeight: 2}); !res.IsOK() {
		t.Fatalf("recv: %s", res.Log)
	}

	// A timeout at a proof height past the timeout height, with no proof.
	if res := deliverBlock(t, a, 2, "relayer", &ibc.MsgUpdateClient{ClientID: p.ClientOnA, Bundle: headerOf(b, 5)}); !res.IsOK() {
		t.Fatalf("update a's client: %s", res.Log)
	}
	res = deliverBlock(t, a, 3, "relayer", &ibc.MsgTimeout{Packet: *packet, ProofHeight: 5})
	if res.IsOK() || !strings.Contains(res.Log, ibc.ErrProofVerify.Error()) {
		t.Fatalf("timeout of a received packet: code %d log %q, want %v", res.Code, res.Log, ibc.ErrProofVerify)
	}
	if got := a.App.Bank().Balance("alice", "uatom"); got != 923 {
		t.Fatalf("alice holds %d uatom after the refused timeout, want 923", got)
	}
}

// linkedTransfer links two chains, sends alice's 77 uatom from a to bob
// on b at height 1, and updates b's client of a to height 2.
func linkedTransfer(t *testing.T) (a, b *Chain, p *Pair, packet *ibc.Packet) {
	t.Helper()
	sched, net := harness(t)
	a = newTestChain(t, sched, net, "a")
	b = newTestChain(t, sched, net, "b")
	p = Link(a, b)
	a.App.CreateAccount("alice", app.Coin{Denom: "uatom", Amount: 1000})
	for _, c := range []*Chain{a, b} {
		c.App.CreateAccount("relayer", app.Coin{Denom: "stake", Amount: 1 << 40})
	}
	res := deliverBlock(t, a, 1, "alice", &transfer.MsgTransfer{
		Sender: "alice", Receiver: "bob", Token: app.Coin{Denom: "uatom", Amount: 77},
		SourcePort: p.Port, SourceChannel: p.ChannelAB, TimeoutHeight: 10,
	})
	if !res.IsOK() {
		t.Fatalf("transfer: %s", res.Log)
	}
	for _, ev := range res.Events {
		if pk, ok := ev.Data.(*ibc.Packet); ok {
			packet = pk
		}
	}
	if packet == nil {
		t.Fatal("transfer emitted no packet")
	}
	if res := deliverBlock(t, b, 1, "relayer", &ibc.MsgUpdateClient{ClientID: p.ClientOnB, Bundle: headerOf(a, 2)}); !res.IsOK() {
		t.Fatalf("update b's client: %s", res.Log)
	}
	return a, b, p, packet
}

// TestForgedRecvRefused submits a MsgRecvPacket for a sequence the
// source never sent, straight to the destination. In performance mode
// no proof of its commitment is carried; the keeper checks the
// counterparty's committed state, which holds no commitment for it, and
// refuses to mint the voucher.
func TestForgedRecvRefused(t *testing.T) {
	_, b, _, packet := linkedTransfer(t)
	forged := *packet
	forged.Sequence++
	res := deliverBlock(t, b, 2, "relayer", &ibc.MsgRecvPacket{Packet: forged, ProofHeight: 2})
	if res.IsOK() || !strings.Contains(res.Log, ibc.ErrProofVerify.Error()) {
		t.Fatalf("recv of an unsent sequence: code %d log %q, want %v", res.Code, res.Log, ibc.ErrProofVerify)
	}
	voucher, _ := transfer.ReceivedDenom(nil, forged, []byte("uatom"))
	if got := b.App.Bank().Balance("bob", string(voucher)); got != 0 {
		t.Fatalf("bob holds %d %s after the refused recv, want 0", got, voucher)
	}
	// The packet that was sent is received.
	if res := deliverBlock(t, b, 3, "relayer", &ibc.MsgRecvPacket{Packet: *packet, ProofHeight: 2}); !res.IsOK() {
		t.Fatalf("recv: %s", res.Log)
	}
}

// TestErrorAckOfReceivedPacketRefused submits a MsgAcknowledgement with
// an error ack for a packet the destination received and acknowledged
// with success, straight to the source. In performance mode no proof of
// the ack is carried; the keeper checks the counterparty's committed
// ack, which is the success ack's, and refuses to refund the sender
// while the voucher exists.
func TestErrorAckOfReceivedPacketRefused(t *testing.T) {
	a, b, p, packet := linkedTransfer(t)
	if res := deliverBlock(t, b, 2, "relayer", &ibc.MsgRecvPacket{Packet: *packet, ProofHeight: 2}); !res.IsOK() {
		t.Fatalf("recv: %s", res.Log)
	}
	if res := deliverBlock(t, a, 2, "relayer", &ibc.MsgUpdateClient{ClientID: p.ClientOnA, Bundle: headerOf(b, 3)}); !res.IsOK() {
		t.Fatalf("update a's client: %s", res.Log)
	}
	forged := ibc.Acknowledgement{Error: "forged"}.Bytes()
	res := deliverBlock(t, a, 3, "relayer", &ibc.MsgAcknowledgement{Packet: *packet, Ack: forged, ProofHeight: 3})
	if res.IsOK() || !strings.Contains(res.Log, ibc.ErrProofVerify.Error()) {
		t.Fatalf("error ack of a received packet: code %d log %q, want %v", res.Code, res.Log, ibc.ErrProofVerify)
	}
	if got := a.App.Bank().Balance("alice", "uatom"); got != 923 {
		t.Fatalf("alice holds %d uatom after the refused ack, want 923", got)
	}
	// The ack the destination wrote is accepted.
	if res := deliverBlock(t, a, 4, "relayer", &ibc.MsgAcknowledgement{Packet: *packet, Ack: ibc.SuccessAck.Bytes(), ProofHeight: 3}); !res.IsOK() {
		t.Fatalf("ack: %s", res.Log)
	}
}
