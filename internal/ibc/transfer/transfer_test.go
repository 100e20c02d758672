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
	if got, home := ReceivedDenom(nil, in("channel-0"), []byte("uatom")); string(got) != "transfer/channel-0/uatom" || home {
		t.Fatalf("voucher = %q (home %v)", got, home)
	}
	if got := EscrowAccount("transfer", "channel-0"); got != "escrow/transfer/channel-0" {
		t.Fatalf("escrow = %q", got)
	}
	// Different channels produce non-fungible denominations (§IV-A).
	a, _ := ReceivedDenom(nil, in("channel-0"), []byte("uatom"))
	b, _ := ReceivedDenom(nil, in("channel-1"), []byte("uatom"))
	if string(a) == string(b) {
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

// A token going home is credited as a sub-slice of the packet's denom,
// and a minted voucher's name is appended into the caller's buffer:
// neither allocates.
func TestReceivedDenomAllocs(t *testing.T) {
	p := ibc.Packet{SourcePort: PortID, SourceChannel: "channel-3", DestPort: PortID, DestChannel: "channel-7"}
	for _, c := range []struct {
		denom, want string
		home        bool
	}{
		{"transfer/channel-3/uatom", "uatom", true},
		{"transfer/channel-3/transfer/channel-1/uatom", "transfer/channel-1/uatom", true},
		{"uatom", "transfer/channel-7/uatom", false},
		{"transfer/channel-1/uatom", "transfer/channel-7/transfer/channel-1/uatom", false},
	} {
		packetDenom := []byte(c.denom)
		got, home := ReceivedDenom([]byte("kept/"), p, packetDenom)
		if want := map[bool]string{true: c.want, false: "kept/" + c.want}[home]; string(got) != want || home != c.home {
			t.Errorf("ReceivedDenom(%q) = %q, %v; want %q, %v", c.denom, got, home, want, c.home)
		}
		var buf [app.KeyBufLen]byte
		if n := testing.AllocsPerRun(20, func() { ReceivedDenom(buf[:0], p, packetDenom) }); n != 0 {
			t.Errorf("ReceivedDenom(%q) took %.0f allocations, want 0", c.denom, n)
		}
	}
}

// The receive and refund legs read the payload in place and hand the
// bank names and denoms built on the stack, and a send's escrow leg
// names its escrow account on the stack too, so once their keys exist
// none allocates: a door of the bank that let a name escape would cost
// each packet an allocation here.
func TestReceiveAndRefundAllocateNothing(t *testing.T) {
	a := app.New("c", false)
	m := New(a, ibc.NewKeeper(a))
	st := a.State()
	ctx := &app.Context{ChainID: "c", State: st, Bank: a.Bank(), App: a}
	escrow := EscrowAccount(PortID, "channel-0")
	a.CreateAccount(escrow, app.Coin{Denom: "uatom", Amount: 1 << 20})
	a.CreateAccount("alice", app.Coin{Denom: "uatom", Amount: 1}) // never drained, so never a new key
	payload := func(denom string) []byte {
		return (&PacketData{Denom: denom, Amount: 1, Sender: "alice", Receiver: "bob"}).AppendBytes(nil)
	}
	in := ibc.Packet{SourcePort: PortID, SourceChannel: "channel-9", DestPort: PortID, DestChannel: "channel-0"}
	out := ibc.Packet{SourcePort: PortID, SourceChannel: "channel-0", DestPort: PortID, DestChannel: "channel-9"}
	mint, home := in, in // a voucher minted, and a token released from escrow
	mint.Data, home.Data = payload("uatom"), payload("transfer/channel-9/uatom")
	refund, remint := out, out // an escrowed token refunded, and a burned voucher re-minted
	refund.Data, remint.Data = payload("uatom"), payload("transfer/channel-0/uatom")
	h := int64(0)
	round := func() {
		for _, p := range []ibc.Packet{mint, home} {
			data, err := ReadPacketData(p.Data)
			if err != nil {
				t.Fatal(err)
			}
			if ack := m.ReceivePacket(ctx, p, data); !ack.Success() {
				t.Fatalf("receive: %s", ack.Error)
			}
		}
		for _, p := range []ibc.Packet{refund, remint} {
			if err := m.RefundPacket(ctx, p); err != nil {
				t.Fatalf("refund: %v", err)
			}
		}
		// SendTransfer's escrow leg, of the token the refund returned.
		if err := ctx.Bank.Send("alice", EscrowAccount(PortID, "channel-0"), app.Coin{Denom: "uatom", Amount: 1}); err != nil {
			t.Fatalf("escrow: %v", err)
		}
		st.CommitTx()
		h++
		st.Commit(h)
	}
	if got := testing.AllocsPerRun(50, round); got != 0 {
		t.Fatalf("a round of two receives, two refunds and an escrow took %.0f allocations, want 0", got)
	}
	bank := a.Bank()
	if got := bank.Balance("bob", "transfer/channel-0/uatom"); got != 51 {
		t.Errorf("bob holds %d vouchers after 51 rounds", got)
	}
	if got, held := bank.Balance("alice", "transfer/channel-0/uatom"), bank.Balance("alice", "uatom"); got != 51 || held != 1 {
		t.Errorf("alice holds %d re-minted vouchers and %d uatom, want 51 and 1", got, held)
	}
}

func TestMsgTransferMsgInterface(t *testing.T) {
	m := MsgTransfer{Sender: "a", Receiver: "b", Token: app.Coin{Denom: "uatom", Amount: 5}, Nonce: 1}
	var msg app.Msg = &m
	if msg.Route() != PortID || msg.MsgType() != "MsgTransfer" {
		t.Fatalf("route/type = %s/%s", msg.Route(), msg.MsgType())
	}
	if msg.WireSize() <= 0 {
		t.Fatal("wire size")
	}
	m2 := m
	m2.Nonce = 2
	if string(m.AppendDigest(nil)) == string(m2.AppendDigest(nil)) {
		t.Fatal("digest ignores nonce")
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
