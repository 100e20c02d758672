package transfer

import (
	"testing"

	"ibcbench/internal/app"
	"ibcbench/internal/ibc"
)

func TestVoucherPrefixAndEscrowNames(t *testing.T) {
	in := func(channel string) ibc.Packet {
		return ibc.Packet{SourcePort: PortID, SourceChannel: "channel-9", DestPort: PortID, DestChannel: channel}
	}
	if got, home := ReceivedDenom(in("channel-0"), "uatom"); got != "transfer/channel-0/uatom" || home {
		t.Fatalf("voucher = %q (home %v)", got, home)
	}
	if got := EscrowAccount("transfer", "channel-0"); got != "escrow/transfer/channel-0" {
		t.Fatalf("escrow = %q", got)
	}
	// Different channels produce non-fungible denominations (§IV-A).
	a, _ := ReceivedDenom(in("channel-0"), "uatom")
	b, _ := ReceivedDenom(in("channel-1"), "uatom")
	if a == b {
		t.Fatal("channel traces collide")
	}
}

// CutEscrowBalanceKey reads back the key the bank writes for an escrow
// balance, and refuses every other balance or supply key.
func TestCutEscrowBalanceKeyInvertsTheBank(t *testing.T) {
	st := app.NewState(false)
	bank := app.NewBank(st)
	bank.Mint(EscrowAccount(PortID, "channel-3"), app.Coin{Denom: "transfer/channel-1/uatom", Amount: 5})
	bank.Mint("alice", app.Coin{Denom: "uatom", Amount: 5})
	st.CommitTx()
	st.Commit(1)
	var got []string
	for _, w := range st.Written() {
		if port, channel, dn, ok := CutEscrowBalanceKey(w.Key); ok {
			got = append(got, port+" "+channel+" "+dn)
		}
	}
	if len(got) != 1 || got[0] != "transfer channel-3 transfer/channel-1/uatom" {
		t.Fatalf("escrow balances among %d writes = %q", len(st.Written()), got)
	}
}

// A token going home is credited as a substring of the packet's denom;
// only a minted voucher allocates, for its new name.
func TestReceivedDenomAllocs(t *testing.T) {
	p := ibc.Packet{SourcePort: PortID, SourceChannel: "channel-3", DestPort: PortID, DestChannel: "channel-7"}
	for _, c := range []struct {
		denom, want string
		home        bool
		allocs      float64
	}{
		{"transfer/channel-3/uatom", "uatom", true, 0},
		{"transfer/channel-3/transfer/channel-1/uatom", "transfer/channel-1/uatom", true, 0},
		{"uatom", "transfer/channel-7/uatom", false, 1},
		{"transfer/channel-1/uatom", "transfer/channel-7/transfer/channel-1/uatom", false, 1},
	} {
		got, home := ReceivedDenom(p, c.denom)
		if got != c.want || home != c.home {
			t.Errorf("ReceivedDenom(%q) = %q, %v; want %q, %v", c.denom, got, home, c.want, c.home)
		}
		if n := testing.AllocsPerRun(20, func() { ReceivedDenom(p, c.denom) }); n != c.allocs {
			t.Errorf("ReceivedDenom(%q) took %.0f allocations, want %.0f", c.denom, n, c.allocs)
		}
	}
}

func TestMsgTransferMsgInterface(t *testing.T) {
	m := MsgTransfer{Sender: "a", Receiver: "b", Token: app.Coin{Denom: "uatom", Amount: 5}, Nonce: 1}
	if m.Route() != PortID || m.MsgType() != "MsgTransfer" {
		t.Fatalf("route/type = %s/%s", m.Route(), m.MsgType())
	}
	if m.WireSize() <= 0 {
		t.Fatal("wire size")
	}
	m2 := m
	m2.Nonce = 2
	if string(m.AppendDigest(nil)) == string(m2.AppendDigest(nil)) {
		t.Fatal("digest ignores nonce")
	}
}

func TestOnRecvMalformedData(t *testing.T) {
	a := app.New("c", false)
	k := ibc.NewKeeper(a)
	m := New(a, k)
	ctx := &app.Context{ChainID: "c", State: a.State(), Bank: a.Bank(), App: a}
	ack := m.OnRecvPacket(ctx, ibc.Packet{Data: []byte("not json")})
	if ack.Success() {
		t.Fatal("malformed packet acked success")
	}
	if err := m.OnTimeoutPacket(ctx, ibc.Packet{Data: []byte("junk")}); err == nil {
		t.Fatal("malformed timeout refunded")
	}
}

func TestErrorAckTriggersRefund(t *testing.T) {
	a := app.New("c", false)
	k := ibc.NewKeeper(a)
	m := New(a, k)
	a.CreateAccount("alice", app.Coin{Denom: "uatom", Amount: 100})
	ctx := &app.Context{ChainID: "c", State: a.State(), Bank: a.Bank(), App: a}
	// Simulate a prior escrow.
	escrow := EscrowAccount("transfer", "channel-0")
	if err := ctx.Bank.Send("alice", escrow, app.Coin{Denom: "uatom", Amount: 40}); err != nil {
		t.Fatal(err)
	}
	ctx.State.CommitTx()
	pkt := ibc.Packet{
		SourcePort: "transfer", SourceChannel: "channel-0",
		Data: []byte(`{"denom":"uatom","amount":40,"sender":"alice","receiver":"bob"}`),
	}
	if err := m.OnAcknowledgementPacket(ctx, pkt, ibc.Acknowledgement{Error: "boom"}); err != nil {
		t.Fatal(err)
	}
	ctx.State.CommitTx()
	if got := a.Bank().Balance("alice", "uatom"); got != 100 {
		t.Fatalf("alice after error-ack refund = %d", got)
	}
	// Success ack does not refund.
	_, _, acked, refunded := m.Stats()
	if acked != 0 || refunded != 1 {
		t.Fatalf("stats acked=%d refunded=%d", acked, refunded)
	}
	if err := m.OnAcknowledgementPacket(ctx, pkt, ibc.Acknowledgement{Result: []byte("AQ==")}); err != nil {
		t.Fatal(err)
	}
	if got := a.Bank().Balance("alice", "uatom"); got != 100 {
		t.Fatalf("success ack moved funds: %d", got)
	}
}

func TestRefundRemintsBurnedVoucher(t *testing.T) {
	a := app.New("c", false)
	k := ibc.NewKeeper(a)
	m := New(a, k)
	a.CreateAccount("bob")
	ctx := &app.Context{ChainID: "c", State: a.State(), Bank: a.Bank(), App: a}
	voucher := "transfer/channel-0/uatom"
	pkt := ibc.Packet{
		SourcePort: "transfer", SourceChannel: "channel-0",
		Data: []byte(`{"denom":"` + voucher + `","amount":7,"sender":"bob","receiver":"x"}`),
	}
	if err := m.OnTimeoutPacket(ctx, pkt); err != nil {
		t.Fatal(err)
	}
	ctx.State.CommitTx()
	if got := a.Bank().Balance("bob", voucher); got != 7 {
		t.Fatalf("re-minted voucher = %d", got)
	}
}
