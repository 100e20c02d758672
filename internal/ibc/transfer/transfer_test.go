package transfer

import (
	"testing"

	"ibcbench/internal/app"
	"ibcbench/internal/ibc"
	"ibcbench/internal/ibc/denom"
)

func TestVoucherPrefixAndEscrowNames(t *testing.T) {
	native := denom.Parse("uatom")
	if got := native.AddPrefix("transfer", "channel-0").String(); got != "transfer/channel-0/uatom" {
		t.Fatalf("voucher = %q", got)
	}
	if got := EscrowAccount("transfer", "channel-0"); got != "escrow/transfer/channel-0" {
		t.Fatalf("escrow = %q", got)
	}
	// Different channels produce non-fungible denominations (§IV-A).
	a := native.AddPrefix("transfer", "channel-0").String()
	b := native.AddPrefix("transfer", "channel-1").String()
	if a == b {
		t.Fatal("channel traces collide")
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
	if string(m.Digest()) == string(m2.Digest()) {
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
