package ibc_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"ibcbench/internal/app"
	"ibcbench/internal/ibc"
	"ibcbench/internal/ibc/pfm"
	"ibcbench/internal/ibc/transfer"
	"ibcbench/internal/merkle"
	"ibcbench/internal/tendermint/types"
	"ibcbench/internal/valkey"
)

// testChain is a consensus-less chain harness: it executes transactions
// directly and mints signed headers so light-client verification runs
// for real.
type testChain struct {
	t        *testing.T
	chainID  string
	app      *app.App
	keeper   *ibc.Keeper
	transfer *transfer.Module
	keys     []*valkey.PrivKey
	valset   *types.ValidatorSet

	height  int64
	appHash map[int64]types.Hash // app hash after executing block h
	nonce   uint64
	// links numbers this chain's links as chain.Link does; clientOf maps
	// a counterparty's chain ID to this chain's client of it.
	links    int
	clientOf map[string]string
}

func newTestChain(t *testing.T, chainID string) *testChain {
	t.Helper()
	return newTestChainProofs(t, chainID, true)
}

// newTestChainProofs builds the harness with proof verification on or
// off; without it a test can write a client's consensus states from
// headers nobody signed.
func newTestChainProofs(t *testing.T, chainID string, fullProofs bool) *testChain {
	t.Helper()
	a := app.New(chainID, fullProofs)
	k := ibc.NewKeeper(a)
	tm := transfer.New(a, k)
	pfm.New(k, tm) // the middleware binds the transfer port, as on every chain
	c := &testChain{
		t: t, chainID: chainID, app: a, keeper: k, transfer: tm,
		appHash: make(map[int64]types.Hash), clientOf: make(map[string]string),
	}
	vals := make([]*types.Validator, 4)
	for i := range vals {
		key := valkey.Derive(chainID, i)
		c.keys = append(c.keys, key)
		vals[i] = &types.Validator{Address: key.Pub().Address(), PubKey: key.Pub(), VotingPower: 10}
	}
	c.valset = types.NewValidatorSet(vals)
	c.appHash[0] = a.Commit() // genesis
	c.app.CreateAccount("relayer", app.Coin{Denom: "stake", Amount: 1 << 40})
	return c
}

// deliver executes msgs as one tx in a new block and returns the result.
func (c *testChain) deliver(signer string, msgs ...app.Msg) []string {
	c.t.Helper()
	c.height++
	seq, err := c.app.AccountSequence(signer)
	if err != nil {
		c.t.Fatalf("sequence for %s: %v", signer, err)
	}
	c.nonce++
	tx := app.NewTx(signer, seq, c.nonce, msgs)
	tx.GasLimit = 1 << 40
	c.app.BeginBlock(c.height, time.Duration(c.height)*5*time.Second)
	res := c.app.DeliverTx(tx)
	c.app.EndBlock(c.height)
	c.appHash[c.height] = c.app.Commit()
	if !res.IsOK() {
		return []string{res.Log}
	}
	return nil
}

// mustDeliver fails the test if the tx failed.
func (c *testChain) mustDeliver(signer string, msgs ...app.Msg) {
	c.t.Helper()
	if errs := c.deliver(signer, msgs...); errs != nil {
		c.t.Fatalf("deliver on %s: %v", c.chainID, errs)
	}
}

// emptyBlock advances the chain one height with no transactions.
func (c *testChain) emptyBlock() {
	c.height++
	c.app.BeginBlock(c.height, time.Duration(c.height)*5*time.Second)
	c.app.EndBlock(c.height)
	c.appHash[c.height] = c.app.Commit()
}

// headerBundle builds a signed header at height h carrying the app hash
// after block h-1 (Cosmos convention).
func (c *testChain) headerBundle(h int64) ibc.HeaderBundle {
	c.t.Helper()
	hdr := types.Header{
		ChainID: c.chainID,
		Height:  h,
		Time:    time.Duration(h) * 5 * time.Second,
		AppHash: c.appHash[h-1],
	}
	blockID := types.BlockID{Hash: hdr.Hash()}
	commit := &types.Commit{Height: h, BlockID: blockID}
	for i, val := range c.valset.Validators {
		vote := &types.Vote{
			Type: types.PrecommitType, Height: h, BlockID: blockID,
			ValidatorAddress: val.Address,
		}
		commit.Signatures = append(commit.Signatures, types.CommitSig{
			Flag:             types.BlockIDFlagCommit,
			ValidatorAddress: val.Address,
			Signature:        c.keys[i].Sign(types.AppendVoteSignBytes(nil, c.chainID, vote)),
		})
	}
	return ibc.HeaderBundle{Header: hdr, Commit: commit}
}

// clientState describes this chain for a counterparty's client.
func (c *testChain) clientState() ibc.ClientState {
	var vals []ibc.ValidatorRecord
	for _, v := range c.valset.Validators {
		vals = append(vals, ibc.ValidatorRecord{PubKey: v.PubKey.Bytes(), Power: v.VotingPower})
	}
	return ibc.ClientState{ChainID: c.chainID, Validators: vals}
}

// prove builds the proof of record seq of the kind's table on port
// transfer, channel, in this chain's state as of consensus height
// consHeight (state at consHeight-1).
func (c *testChain) prove(consHeight int64, kind app.RecordKind, channel string, seq uint64) ([]byte, *merkle.RecordProof) {
	c.t.Helper()
	r := ibc.PacketRecords(nil, kind, "transfer", channel)
	value, p, err := c.app.State().ProveRecord(consHeight-1, &r, seq)
	if err != nil {
		c.t.Fatalf("proof at %d: %v", consHeight-1, err)
	}
	if p == nil {
		c.t.Fatalf("record %s%d absent at height %d", r.Prefix, seq, consHeight-1)
	}
	return value, p
}

// proveAbsent builds the proof that record seq of the kind's table on
// port transfer, channel, is absent.
func (c *testChain) proveAbsent(consHeight int64, kind app.RecordKind, channel string, seq uint64) *merkle.RecordProof {
	c.t.Helper()
	r := ibc.PacketRecords(nil, kind, "transfer", channel)
	p, err := c.app.State().ProveRecordAbsent(consHeight-1, &r, seq)
	if err != nil {
		c.t.Fatalf("proof at %d: %v", consHeight-1, err)
	}
	if p == nil {
		c.t.Fatalf("record %s%d present at height %d", r.Prefix, seq, consHeight-1)
	}
	return p
}

// updateClientTo relays a header so dst's client of src reaches height h.
func updateClientTo(dst, src *testChain, h int64) {
	dst.mustDeliver("relayer", &ibc.MsgUpdateClient{ClientID: dst.clientOf[src.chainID], Bundle: src.headerBundle(h)})
}

// linkChains opens a transfer channel between two chains the way
// chain.Link does: each end is seeded open under the chain's next link
// ordinal, and each client pins the counterparty's validator set, so
// every later header and packet is verified with full proofs.
func linkChains(t *testing.T, a, b *testChain) (onA, onB ibc.EndIDs) {
	t.Helper()
	end := func(c *testChain) ibc.EndIDs {
		ord := c.links
		c.links++
		return ibc.EndIDs{
			Port:       "transfer",
			Channel:    fmt.Sprintf("channel-%d", ord),
			Connection: fmt.Sprintf("connection-%d", ord),
			Client:     fmt.Sprintf("07-tendermint-%d", ord),
		}
	}
	onA, onB = end(a), end(b)
	for _, s := range []struct {
		host, peer *testChain
		self, cp   ibc.EndIDs
	}{{a, b, onA, onB}, {b, a, onB, onA}} {
		ibc.SeedOpenEnd(s.host.app.State(), s.self, s.cp, s.peer.clientState(), s.peer.app.State())
		s.host.app.State().CommitTx()
		s.host.clientOf[s.peer.chainID] = s.self.Client
		s.host.emptyBlock() // commit the ends, so a proof can show them
	}
	return onA, onB
}

func ctxOf(c *testChain) *app.Context {
	return &app.Context{
		ChainID: c.chainID, Height: c.height, Time: time.Duration(c.height) * 5 * time.Second,
		State: c.app.State(), Bank: c.app.Bank(), App: c.app,
	}
}

// TestSeededEndsNameEachOther pins what the connection and channel
// handshakes' proofs required of an open channel, now that its ends are
// seeded: each end's stored connection and channel are exactly the bytes
// its counterparty's handshake would have proven (counterparty
// connection, client, port and channel; OPEN; unordered; ics20-1), its
// client pins the counterparty's validators and its send counter is 1.
// A chain linked to three counterparties takes the next ordinal each
// time and keeps its earlier ends.
func TestSeededEndsNameEachOther(t *testing.T) {
	hub := newTestChain(t, "hub")
	spokes := []*testChain{newTestChain(t, "s0"), newTestChain(t, "s1"), newTestChain(t, "s2")}
	ends := make([][2]ibc.EndIDs, len(spokes))
	for i, s := range spokes {
		onHub, onSpoke := linkChains(t, hub, s)
		ends[i] = [2]ibc.EndIDs{onHub, onSpoke}
	}
	for i, s := range spokes {
		onHub, onSpoke := ends[i][0], ends[i][1]
		if onHub.Channel != fmt.Sprintf("channel-%d", i) || onHub.Connection != fmt.Sprintf("connection-%d", i) ||
			onHub.Client != fmt.Sprintf("07-tendermint-%d", i) {
			t.Errorf("hub's link %d: %+v, want ordinal %d", i, onHub, i)
		}
		if onSpoke.Channel != "channel-0" || onSpoke.Connection != "connection-0" || onSpoke.Client != "07-tendermint-0" {
			t.Errorf("spoke %d's first link: %+v, want ordinal 0", i, onSpoke)
		}
		checkSeededEnd(t, hub, onHub, s)
		checkSeededEnd(t, s, onSpoke, hub)
	}
}

// checkSeededEnd reads self's end on c and checks that peer stores the
// counterparty end the handshake's proofs expected of it.
func checkSeededEnd(t *testing.T, c *testChain, self ibc.EndIDs, peer *testChain) {
	t.Helper()
	ctx := ctxOf(c)
	ch, err := c.keeper.Channel(ctx, self.Port, self.Channel)
	if err != nil {
		t.Fatalf("%s: %v", c.chainID, err)
	}
	conn, err := c.keeper.Connection(ctx, ch.ConnectionID)
	if err != nil {
		t.Fatalf("%s: %v", c.chainID, err)
	}
	if ch.State != ibc.StateOpen || ch.Ordering != ibc.Unordered || ch.Version != "ics20-1" ||
		ch.ConnectionID != self.Connection || conn.State != ibc.StateOpen || conn.ClientID != self.Client {
		t.Errorf("%s %s: channel %+v over connection %+v", c.chainID, self.Channel, ch, conn)
	}
	// What the counterparty must store, as the handshake's ack and
	// confirm steps built it from this end before verifying its proof.
	wantConn := ibc.ConnectionEnd{
		State:                ibc.StateOpen,
		ClientID:             conn.CounterpartyClientID,
		CounterpartyConnID:   ch.ConnectionID,
		CounterpartyClientID: conn.ClientID,
	}
	wantChan := ibc.ChannelEnd{
		State:            ibc.StateOpen,
		Ordering:         ch.Ordering,
		CounterpartyPort: self.Port,
		CounterpartyChan: self.Channel,
		ConnectionID:     conn.CounterpartyConnID,
		Version:          ch.Version,
	}
	for _, w := range []struct {
		key  string
		want any
	}{
		{ibc.ConnectionKey(conn.CounterpartyConnID), wantConn},
		{ibc.ChannelKey(ch.CounterpartyPort, ch.CounterpartyChan), wantChan},
	} {
		got, _ := peer.app.State().Get([]byte(w.key))
		if want := mustJSON(t, w.want); !bytes.Equal(got, want) {
			t.Errorf("%s stores %s = %s, want %s", peer.chainID, w.key, got, want)
		}
	}
	cs, err := c.keeper.Client(ctx, conn.ClientID)
	if err != nil {
		t.Fatalf("%s: %v", c.chainID, err)
	}
	pinned := peer.clientState()
	pinned.LatestHeight = 1
	if raw, want := mustJSON(t, cs), mustJSON(t, pinned); !bytes.Equal(raw, want) {
		t.Errorf("%s client %s = %s, want %s", c.chainID, conn.ClientID, raw, want)
	}
	if raw, _ := c.app.State().Get([]byte(ibc.NextSequenceSendKey(self.Port, self.Channel))); string(raw) != "1" {
		t.Errorf("%s %s: send counter %q, want 1", c.chainID, self.Channel, raw)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// relayTransfer performs one full transfer lifecycle A -> B with proofs
// and returns the voucher denom minted on B.
func relayTransfer(t *testing.T, a, b *testChain, sender, receiver string, amount uint64) string {
	t.Helper()
	a.mustDeliver(sender, &transfer.MsgTransfer{
		Sender: sender, Receiver: receiver,
		Token:         app.Coin{Denom: "uatom", Amount: amount},
		SourcePort:    "transfer",
		SourceChannel: "channel-0",
		TimeoutHeight: a.height + 1000,
	})
	sendHeight := a.height
	// Find the packet commitment (sequence unknown: scan via keeper).
	var seq uint64
	for s := uint64(1); s < 100; s++ {
		if a.keeper.HasCommitment(ctxOf(a), "transfer", "channel-0", s) &&
			!b.keeper.HasReceipt(ctxOf(b), "transfer", "channel-0", s) {
			seq = s
			break
		}
	}
	if seq == 0 {
		t.Fatal("no pending commitment found")
	}
	packet := ibc.Packet{
		Sequence: seq, SourcePort: "transfer", SourceChannel: "channel-0",
		DestPort: "transfer", DestChannel: "channel-0",
		Data:          mustPacketData(t, "uatom", amount, sender, receiver),
		TimeoutHeight: sendHeight + 1000 - 1, // as encoded at send time
	}
	// Fix the timeout to the value actually used at send time.
	packet.TimeoutHeight = sendHeight - 1 + 1000

	updateClientTo(b, a, sendHeight+1)
	_, commitProof := a.prove(sendHeight+1, app.Commitment, "channel-0", seq)
	b.mustDeliver("relayer", &ibc.MsgRecvPacket{
		Packet: packet, ProofCommitment: commitProof, ProofHeight: sendHeight + 1,
	})
	recvHeight := b.height

	ack := ibc.Acknowledgement{Result: []byte("AQ==")}
	updateClientTo(a, b, recvHeight+1)
	_, ackProof := b.prove(recvHeight+1, app.Ack, "channel-0", seq)
	a.mustDeliver("relayer", &ibc.MsgAcknowledgement{
		Packet: packet, Ack: ack.Bytes(), ProofAcked: ackProof, ProofHeight: recvHeight + 1,
	})
	return "transfer/channel-0/uatom"
}

func mustPacketData(t *testing.T, denom string, amount uint64, sender, receiver string) []byte {
	t.Helper()
	return []byte(fmt.Sprintf(`{"denom":%q,"amount":%d,"sender":%q,"receiver":%q}`,
		denom, amount, sender, receiver))
}

func TestFullTransferLifecycle(t *testing.T) {
	a := newTestChain(t, "chain-a")
	b := newTestChain(t, "chain-b")
	a.app.CreateAccount("alice", app.Coin{Denom: "uatom", Amount: 1000})
	b.app.CreateAccount("bob")
	linkChains(t, a, b)

	voucher := relayTransfer(t, a, b, "alice", "bob", 250)

	if got := a.app.Bank().Balance("alice", "uatom"); got != 750 {
		t.Fatalf("alice = %d", got)
	}
	escrow := transfer.EscrowAccount("transfer", "channel-0")
	if got := a.app.Bank().Balance(escrow, "uatom"); got != 250 {
		t.Fatalf("escrow = %d", got)
	}
	if got := b.app.Bank().Balance("bob", voucher); got != 250 {
		t.Fatalf("bob voucher = %d", got)
	}
	// Commitment cleared after ack.
	if a.keeper.HasCommitment(ctxOf(a), "transfer", "channel-0", 1) {
		t.Fatal("commitment not deleted after ack")
	}
	sent, received, acked, refunded := a.transfer.Stats()
	if sent != 1 || acked != 1 || refunded != 0 {
		t.Fatalf("a stats = %d/%d/%d/%d", sent, received, acked, refunded)
	}
	_, receivedB, _, _ := b.transfer.Stats()
	if receivedB != 1 {
		t.Fatalf("b received = %d", receivedB)
	}
}

func TestVoucherRoundTripRestoresOriginalDenom(t *testing.T) {
	a := newTestChain(t, "chain-a")
	b := newTestChain(t, "chain-b")
	a.app.CreateAccount("alice", app.Coin{Denom: "uatom", Amount: 1000})
	b.app.CreateAccount("bob")
	b.app.CreateAccount("alice") // return destination
	linkChains(t, a, b)

	voucher := relayTransfer(t, a, b, "alice", "bob", 400)

	// Send the voucher back B -> A: burn on B, unescrow on A.
	b.mustDeliver("bob", &transfer.MsgTransfer{
		Sender: "bob", Receiver: "alice",
		Token:         app.Coin{Denom: voucher, Amount: 150},
		SourcePort:    "transfer",
		SourceChannel: "channel-0",
		TimeoutHeight: b.height + 1000,
	})
	sendHeight := b.height
	packet := ibc.Packet{
		Sequence: 1, SourcePort: "transfer", SourceChannel: "channel-0",
		DestPort: "transfer", DestChannel: "channel-0",
		Data:          mustPacketData(t, voucher, 150, "bob", "alice"),
		TimeoutHeight: sendHeight - 1 + 1000,
	}
	updateClientTo(a, b, sendHeight+1)
	_, proof := b.prove(sendHeight+1, app.Commitment, "channel-0", 1)
	a.mustDeliver("relayer", &ibc.MsgRecvPacket{
		Packet: packet, ProofCommitment: proof, ProofHeight: sendHeight + 1,
	})

	if got := b.app.Bank().Balance("bob", voucher); got != 250 {
		t.Fatalf("bob voucher after return = %d", got)
	}
	if got := b.app.Bank().Supply(voucher); got != 250 {
		t.Fatalf("voucher supply = %d", got)
	}
	if got := a.app.Bank().Balance("alice", "uatom"); got != 600+150 {
		t.Fatalf("alice uatom = %d", got)
	}
	escrow := transfer.EscrowAccount("transfer", "channel-0")
	if got := a.app.Bank().Balance(escrow, "uatom"); got != 250 {
		t.Fatalf("escrow = %d", got)
	}
}

func TestEscrowVoucherInvariant(t *testing.T) {
	a := newTestChain(t, "chain-a")
	b := newTestChain(t, "chain-b")
	a.app.CreateAccount("alice", app.Coin{Denom: "uatom", Amount: 100000})
	b.app.CreateAccount("bob")
	linkChains(t, a, b)
	voucher := "transfer/channel-0/uatom"
	escrow := transfer.EscrowAccount("transfer", "channel-0")
	for i := 0; i < 5; i++ {
		relayTransfer(t, a, b, "alice", "bob", uint64(100+i))
		// Invariant: escrowed == minted voucher supply.
		if a.app.Bank().Balance(escrow, "uatom") != b.app.Bank().Supply(voucher) {
			t.Fatalf("escrow %d != voucher supply %d",
				a.app.Bank().Balance(escrow, "uatom"), b.app.Bank().Supply(voucher))
		}
	}
}

func TestRedundantRecvRejected(t *testing.T) {
	a := newTestChain(t, "chain-a")
	b := newTestChain(t, "chain-b")
	a.app.CreateAccount("alice", app.Coin{Denom: "uatom", Amount: 1000})
	b.app.CreateAccount("bob")
	linkChains(t, a, b)
	a.mustDeliver("alice", &transfer.MsgTransfer{
		Sender: "alice", Receiver: "bob",
		Token:      app.Coin{Denom: "uatom", Amount: 10},
		SourcePort: "transfer", SourceChannel: "channel-0",
		TimeoutHeight: a.height + 1000,
	})
	sendHeight := a.height
	packet := ibc.Packet{
		Sequence: 1, SourcePort: "transfer", SourceChannel: "channel-0",
		DestPort: "transfer", DestChannel: "channel-0",
		Data:          mustPacketData(t, "uatom", 10, "alice", "bob"),
		TimeoutHeight: sendHeight - 1 + 1000,
	}
	updateClientTo(b, a, sendHeight+1)
	_, proof := a.prove(sendHeight+1, app.Commitment, "channel-0", 1)
	recv := &ibc.MsgRecvPacket{Packet: packet, ProofCommitment: proof, ProofHeight: sendHeight + 1}
	b.mustDeliver("relayer", recv)
	// A second relayer delivering the same packet fails: "packet
	// messages are redundant".
	errs := b.deliver("relayer", recv)
	if errs == nil {
		t.Fatal("redundant recv succeeded")
	}
	if !strings.Contains(errs[0], "redundant") {
		t.Fatalf("error = %q, want redundant-packet", errs[0])
	}
	// Funds were minted exactly once.
	voucher := "transfer/channel-0/uatom"
	if got := b.app.Bank().Balance("bob", voucher); got != 10 {
		t.Fatalf("bob = %d after redundant delivery", got)
	}
}

func TestTimeoutRefundsEscrow(t *testing.T) {
	a := newTestChain(t, "chain-a")
	b := newTestChain(t, "chain-b")
	a.app.CreateAccount("alice", app.Coin{Denom: "uatom", Amount: 1000})
	b.app.CreateAccount("bob")
	linkChains(t, a, b)

	a.mustDeliver("alice", &transfer.MsgTransfer{
		Sender: "alice", Receiver: "bob",
		Token:      app.Coin{Denom: "uatom", Amount: 77},
		SourcePort: "transfer", SourceChannel: "channel-0",
		TimeoutHeight: b.height + 2, // tight timeout on destination
	})
	sendHeight := a.height
	timeout := b.height + 2
	packet := ibc.Packet{
		Sequence: 1, SourcePort: "transfer", SourceChannel: "channel-0",
		DestPort: "transfer", DestChannel: "channel-0",
		Data:          mustPacketData(t, "uatom", 77, "alice", "bob"),
		TimeoutHeight: timeout,
	}
	_ = sendHeight
	// Let destination pass the timeout height without receiving.
	for b.height < timeout+1 {
		b.emptyBlock()
	}
	// Receive must now be rejected on B.
	updateClientTo(b, a, a.height+1)
	_, proof := a.prove(a.height+1, app.Commitment, "channel-0", 1)
	errs := b.deliver("relayer", &ibc.MsgRecvPacket{
		Packet: packet, ProofCommitment: proof, ProofHeight: a.height + 1,
	})
	if errs == nil {
		t.Fatal("expired packet accepted")
	}
	// Relay the timeout to A with a non-receipt proof.
	updateClientTo(a, b, b.height+1)
	absent := b.proveAbsent(b.height+1, app.Receipt, "channel-0", 1)
	a.mustDeliver("relayer", &ibc.MsgTimeout{
		Packet: packet, ProofUnreceived: absent, ProofHeight: b.height + 1,
	})
	if got := a.app.Bank().Balance("alice", "uatom"); got != 1000 {
		t.Fatalf("alice after refund = %d", got)
	}
	if a.keeper.HasCommitment(ctxOf(a), "transfer", "channel-0", 1) {
		t.Fatal("commitment survives timeout")
	}
	_, _, _, refunded := a.transfer.Stats()
	if refunded != 1 {
		t.Fatalf("refunded = %d", refunded)
	}
}

func TestTimeoutTooEarlyRejected(t *testing.T) {
	a := newTestChain(t, "chain-a")
	b := newTestChain(t, "chain-b")
	a.app.CreateAccount("alice", app.Coin{Denom: "uatom", Amount: 1000})
	linkChains(t, a, b)
	a.mustDeliver("alice", &transfer.MsgTransfer{
		Sender: "alice", Receiver: "bob",
		Token:      app.Coin{Denom: "uatom", Amount: 5},
		SourcePort: "transfer", SourceChannel: "channel-0",
		TimeoutHeight: b.height + 1000,
	})
	packet := ibc.Packet{
		Sequence: 1, SourcePort: "transfer", SourceChannel: "channel-0",
		DestPort: "transfer", DestChannel: "channel-0",
		Data:          mustPacketData(t, "uatom", 5, "alice", "bob"),
		TimeoutHeight: b.height - 1 + 1000,
	}
	updateClientTo(a, b, b.height+1)
	absent := b.proveAbsent(b.height+1, app.Receipt, "channel-0", 1)
	errs := a.deliver("relayer", &ibc.MsgTimeout{
		Packet: packet, ProofUnreceived: absent, ProofHeight: b.height + 1,
	})
	if errs == nil {
		t.Fatal("premature timeout accepted")
	}
	if !strings.Contains(errs[0], "not yet elapsed") {
		t.Fatalf("error = %q", errs[0])
	}
}

func TestForgedProofRejected(t *testing.T) {
	a := newTestChain(t, "chain-a")
	b := newTestChain(t, "chain-b")
	a.app.CreateAccount("alice", app.Coin{Denom: "uatom", Amount: 1000})
	b.app.CreateAccount("bob")
	linkChains(t, a, b)
	a.mustDeliver("alice", &transfer.MsgTransfer{
		Sender: "alice", Receiver: "bob",
		Token:      app.Coin{Denom: "uatom", Amount: 10},
		SourcePort: "transfer", SourceChannel: "channel-0",
		TimeoutHeight: a.height + 1000,
	})
	// Forge a packet that A never committed.
	packet := ibc.Packet{
		Sequence: 9, SourcePort: "transfer", SourceChannel: "channel-0",
		DestPort: "transfer", DestChannel: "channel-0",
		Data:          mustPacketData(t, "uatom", 999999, "alice", "bob"),
		TimeoutHeight: 100000,
	}
	updateClientTo(b, a, a.height+1)
	// Present the proof of the packet A did commit, sequence 1.
	_, wrongProof := a.prove(a.height+1, app.Commitment, "channel-0", 1)
	errs := b.deliver("relayer", &ibc.MsgRecvPacket{
		Packet: packet, ProofCommitment: wrongProof, ProofHeight: a.height + 1,
	})
	if errs == nil {
		t.Fatal("forged packet accepted")
	}
	if !strings.Contains(errs[0], "proof") {
		t.Fatalf("error = %q", errs[0])
	}
	if got := b.app.Bank().Balance("bob", "transfer/channel-0/uatom"); got != 0 {
		t.Fatalf("forged mint: %d", got)
	}
}

// A full proof the counterparty's state contradicts is a bug in the
// proof path, not a refusal: the keeper checks every membership proof
// it accepts against that state, and panics naming the chain, proof
// height and key. Here the source deletes its commitment after the proof
// was built, so the proof still verifies against the root at its height.
func TestAcceptedProofOfAbsentRecordPanics(t *testing.T) {
	a := newTestChain(t, "chain-a")
	b := newTestChain(t, "chain-b")
	a.app.CreateAccount("alice", app.Coin{Denom: "uatom", Amount: 1000})
	b.app.CreateAccount("bob")
	linkChains(t, a, b)
	a.mustDeliver("alice", &transfer.MsgTransfer{
		Sender: "alice", Receiver: "bob",
		Token:      app.Coin{Denom: "uatom", Amount: 10},
		SourcePort: "transfer", SourceChannel: "channel-0",
		TimeoutHeight: a.height + 1000,
	})
	sendHeight := a.height
	packet := ibc.Packet{
		Sequence: 1, SourcePort: "transfer", SourceChannel: "channel-0",
		DestPort: "transfer", DestChannel: "channel-0",
		Data:          mustPacketData(t, "uatom", 10, "alice", "bob"),
		TimeoutHeight: sendHeight - 1 + 1000,
	}
	updateClientTo(b, a, sendHeight+1)
	key := ibc.PacketCommitmentKey("transfer", "channel-0", 1)
	_, proof := a.prove(sendHeight+1, app.Commitment, "channel-0", 1)
	commitments := ibc.PacketRecords(nil, app.Commitment, "transfer", "channel-0")
	a.app.State().DeleteRecord(&commitments, 1)
	a.app.State().CommitTx()
	a.emptyBlock()

	got := func() (v any) {
		defer func() { v = recover() }()
		b.deliver("relayer", &ibc.MsgRecvPacket{Packet: packet, ProofCommitment: proof, ProofHeight: sendHeight + 1})
		return nil
	}()
	msg, _ := got.(string)
	if want := fmt.Sprintf("%q on chain-a at proof height %d", key, sendHeight+1); !strings.Contains(msg, want) {
		t.Fatalf("recv of a proof the source contradicts: panic %v, want one naming %s", got, want)
	}
}

func TestUpdateClientRejectsForgedHeader(t *testing.T) {
	a := newTestChain(t, "chain-a")
	b := newTestChain(t, "chain-b")
	linkChains(t, a, b)
	// A header signed by the wrong chain's validators must be rejected.
	forged := b.headerBundle(b.height + 1)
	forged.Header.ChainID = "chain-a"
	errs := b.deliver("relayer", &ibc.MsgUpdateClient{ClientID: b.clientOf[a.chainID], Bundle: forged})
	if errs == nil {
		t.Fatal("forged header accepted")
	}
	// And a header whose AppHash was tampered with fails too (BlockID
	// signature binds the header).
	tampered := a.headerBundle(a.height + 1)
	tampered.Header.AppHash[0] ^= 1
	errs = b.deliver("relayer", &ibc.MsgUpdateClient{ClientID: b.clientOf[a.chainID], Bundle: tampered})
	if errs == nil {
		t.Fatal("tampered header accepted")
	}
}

// TestRewrittenClientVerifiesUnderItsNewSet: the validator set a light
// client keeps is checked against its stored records on every update,
// so once the client is rewritten to pin another chain's validators, a
// header signed by the old ones no longer verifies.
func TestRewrittenClientVerifiesUnderItsNewSet(t *testing.T) {
	a := newTestChain(t, "chain-a")
	b := newTestChain(t, "chain-b")
	c := newTestChain(t, "chain-c")
	linkChains(t, a, b)
	client := b.clientOf[a.chainID]
	a.emptyBlock()
	b.mustDeliver("relayer", &ibc.MsgUpdateClient{ClientID: client, Bundle: a.headerBundle(a.height)})

	rewritten := c.clientState()
	rewritten.ChainID, rewritten.LatestHeight = a.chainID, a.height
	raw, err := json.Marshal(rewritten)
	if err != nil {
		t.Fatal(err)
	}
	b.app.State().SetObject([]byte(ibc.ClientStateKey(client)), raw, rewritten)
	b.app.State().CommitTx()
	a.emptyBlock()
	if errs := b.deliver("relayer", &ibc.MsgUpdateClient{ClientID: client, Bundle: a.headerBundle(a.height)}); errs == nil {
		t.Fatal("a header signed by the validators the client no longer pins was accepted")
	}
}

func TestAckParsing(t *testing.T) {
	ok := ibc.Acknowledgement{Result: []byte("AQ==")}
	parsed, err := ibc.ParseAck(ok.Bytes())
	if err != nil || !parsed.Success() {
		t.Fatalf("parsed = %+v err = %v", parsed, err)
	}
	bad := ibc.Acknowledgement{Error: "insufficient funds"}
	parsed, err = ibc.ParseAck(bad.Bytes())
	if err != nil || parsed.Success() {
		t.Fatalf("error ack parsed = %+v", parsed)
	}
	if _, err := ibc.ParseAck([]byte("not json")); err == nil {
		t.Fatal("garbage ack parsed")
	}
}

func TestPacketCommitmentBinding(t *testing.T) {
	p := ibc.Packet{Sequence: 1, Data: []byte("x"), TimeoutHeight: 5}
	q := p
	q.TimeoutHeight = 6
	if string(p.AppendCommitment(nil)) == string(q.AppendCommitment(nil)) {
		t.Fatal("commitment ignores timeout height")
	}
	r := p
	r.Data = []byte("y")
	if string(p.AppendCommitment(nil)) == string(r.AppendCommitment(nil)) {
		t.Fatal("commitment ignores data")
	}
}

func TestErrorAckRefunds(t *testing.T) {
	a := newTestChain(t, "chain-a")
	b := newTestChain(t, "chain-b")
	a.app.CreateAccount("alice", app.Coin{Denom: "uatom", Amount: 1000})
	linkChains(t, a, b)
	a.mustDeliver("alice", &transfer.MsgTransfer{
		Sender: "alice", Receiver: "bob",
		Token:      app.Coin{Denom: "uatom", Amount: 30},
		SourcePort: "transfer", SourceChannel: "channel-0",
		TimeoutHeight: a.height + 1000,
	})
	sendHeight := a.height
	packet := ibc.Packet{
		Sequence: 1, SourcePort: "transfer", SourceChannel: "channel-0",
		DestPort: "transfer", DestChannel: "channel-0",
		Data:          mustPacketData(t, "uatom", 30, "alice", "bob"),
		TimeoutHeight: sendHeight - 1 + 1000,
	}
	// Deliver the packet on B so it writes a (here: error) ack. We
	// simulate an app-level error ack by acknowledging with an error on A
	// directly after B received — craft: receive normally, then A
	// processes an error ack (proof checked against B's written ack, so
	// use performance-mode-style direct call instead).
	updateClientTo(b, a, sendHeight+1)
	_, proof := a.prove(sendHeight+1, app.Commitment, "channel-0", 1)
	b.mustDeliver("relayer", &ibc.MsgRecvPacket{
		Packet: packet, ProofCommitment: proof, ProofHeight: sendHeight + 1,
	})
	recvHeight := b.height
	updateClientTo(a, b, recvHeight+1)
	_, ackProof := b.prove(recvHeight+1, app.Ack, "channel-0", 1)
	// The real ack was a success; verify the keeper rejects a mismatched
	// (error) ack proof, which protects refund correctness.
	errAck := ibc.Acknowledgement{Error: "boom"}
	errs := a.deliver("relayer", &ibc.MsgAcknowledgement{
		Packet: packet, Ack: errAck.Bytes(), ProofAcked: ackProof, ProofHeight: recvHeight + 1,
	})
	if errs == nil {
		t.Fatal("mismatched ack accepted")
	}
	if !errors.Is(ibc.ErrProofVerify, ibc.ErrProofVerify) {
		t.Fatal("sanity")
	}
}
