package ibc_test

import (
	"strings"
	"testing"

	"ibcbench/internal/app"
	"ibcbench/internal/ibc"
	"ibcbench/internal/ibc/transfer"
	"ibcbench/internal/merkle"
)

// sendPackets links two full-proof chains and has alice on a send one
// packet per timeout height given (a height of b), each in its own
// block; it returns the chains and the packets, sequences 1 up.
func sendPackets(t *testing.T, timeouts ...int64) (a, b *testChain, packets []ibc.Packet) {
	t.Helper()
	a = newTestChain(t, "chain-a")
	b = newTestChain(t, "chain-b")
	a.app.CreateAccount("alice", app.Coin{Denom: "uatom", Amount: 1000})
	b.app.CreateAccount("bob")
	linkChains(t, a, b)
	for i, timeout := range timeouts {
		a.mustDeliver("alice", &transfer.MsgTransfer{
			Sender: "alice", Receiver: "bob",
			Token:      app.Coin{Denom: "uatom", Amount: 10},
			SourcePort: "transfer", SourceChannel: "channel-0",
			TimeoutHeight: timeout,
		})
		packets = append(packets, ibc.Packet{
			Sequence: uint64(i + 1), SourcePort: "transfer", SourceChannel: "channel-0",
			DestPort: "transfer", DestChannel: "channel-0",
			Data:          mustPacketData(t, "uatom", 10, "alice", "bob"),
			TimeoutHeight: timeout,
		})
	}
	return a, b, packets
}

// recv delivers packet p to b with a genuine proof at a's latest height.
func recv(a, b *testChain, p ibc.Packet) {
	updateClientTo(b, a, a.height+1)
	_, proof := a.prove(a.height+1, app.Commitment, "channel-0", p.Sequence)
	b.mustDeliver("relayer", &ibc.MsgRecvPacket{Packet: p, ProofCommitment: proof, ProofHeight: a.height + 1})
}

// wantProofRefused fails unless the tx was refused with ErrProofVerify.
func wantProofRefused(t *testing.T, what string, errs []string) {
	t.Helper()
	if len(errs) == 0 || !strings.Contains(errs[0], ibc.ErrProofVerify.Error()) {
		t.Fatalf("%s: %v, want %v", what, errs, ibc.ErrProofVerify)
	}
}

// A record proof's path spells its position, which must be the packet's
// sequence: the genuine proof of commitment 2 does not prove packet 1.
func TestProofOfAnotherSequenceRefused(t *testing.T) {
	a, b, packets := sendPackets(t, 1000, 1000)
	updateClientTo(b, a, a.height+1)
	_, proof2 := a.prove(a.height+1, app.Commitment, "channel-0", 2)
	wantProofRefused(t, "recv of packet 1 with commitment 2's proof",
		b.deliver("relayer", &ibc.MsgRecvPacket{Packet: packets[0], ProofCommitment: proof2, ProofHeight: a.height + 1}))
}

// A record's leaf in one table is no proof of the same sequence and
// value in another: a receipt planted on the source with the commitment's
// value, proved at its place in the receipt table, does not prove the
// commitment.
func TestProofOfAnotherTableRefused(t *testing.T) {
	a, b, packets := sendPackets(t, 1000)
	commitments := ibc.PacketRecords(nil, app.Commitment, "transfer", "channel-0")
	value, _ := a.app.State().GetRecord(&commitments, 1)
	receipts := ibc.PacketRecords(nil, app.Receipt, "transfer", "channel-0")
	a.app.State().SetRecord(&receipts, 1, value)
	a.app.State().CommitTx()
	a.emptyBlock()
	updateClientTo(b, a, a.height+1)
	_, wrong := a.prove(a.height+1, app.Receipt, "channel-0", 1)
	wantProofRefused(t, "recv with the receipt table's proof",
		b.deliver("relayer", &ibc.MsgRecvPacket{Packet: packets[0], ProofCommitment: wrong, ProofHeight: a.height + 1}))
}

// An absence proof is the empty leaf at the sequence: a stored receipt's
// path with the empty leaf claimed does not reach the root, so a timeout
// of a packet the destination received is refused.
func TestEmptyLeafProofOfStoredReceiptRefused(t *testing.T) {
	a, b, packets := sendPackets(t, 6)
	recv(a, b, packets[0])
	for b.height <= packets[0].TimeoutHeight {
		b.emptyBlock()
	}
	updateClientTo(a, b, b.height+1)
	_, stored := b.prove(b.height+1, app.Receipt, "channel-0", 1)
	forged := &merkle.RecordProof{Path: stored.Path, Depth: stored.Depth, Root: stored.Root, Table: stored.Table}
	wantProofRefused(t, "timeout with an empty-leaf proof of a stored receipt",
		a.deliver("relayer", &ibc.MsgTimeout{Packet: packets[0], ProofUnreceived: forged, ProofHeight: b.height + 1}))
	if !a.keeper.HasCommitment(ctxOf(a), "transfer", "channel-0", 1) {
		t.Fatal("the refused timeout deleted the commitment")
	}
}

// A table's capacity is bound into its leaf: an absence proof that
// sequence 3 lies beyond a one-receipt table's capacity no longer
// verifies once the table grew to hold sequence 2, at a later height.
func TestAbsenceBeyondOutgrownCapacityRefused(t *testing.T) {
	a, b, packets := sendPackets(t, 1000, 1000, 12)
	recv(a, b, packets[0])
	beyond := b.proveAbsent(b.height+1, app.Receipt, "channel-0", 3)
	if beyond.Path != nil || beyond.NoTable != nil || beyond.Depth != 1 {
		t.Fatalf("absence of receipt 3 beside receipt 1 = %+v, want one beyond a depth-1 table", beyond)
	}
	recv(a, b, packets[1])
	for b.height <= packets[2].TimeoutHeight {
		b.emptyBlock()
	}
	updateClientTo(a, b, b.height+1)
	wantProofRefused(t, "timeout with an absence proof beyond the outgrown capacity",
		a.deliver("relayer", &ibc.MsgTimeout{Packet: packets[2], ProofUnreceived: beyond, ProofHeight: b.height + 1}))
	// At the new height receipt 3 is an empty leaf inside the capacity,
	// and that proof times the packet out.
	inside := b.proveAbsent(b.height+1, app.Receipt, "channel-0", 3)
	if inside.Path == nil || inside.Depth != 2 {
		t.Fatalf("absence of receipt 3 beside receipts 1 and 2 = %+v, want an empty leaf of a depth-2 table", inside)
	}
	a.mustDeliver("relayer", &ibc.MsgTimeout{Packet: packets[2], ProofUnreceived: inside, ProofHeight: b.height + 1})
}

// A destination that never received on the channel has no receipt
// table: the absence proof is the absence of the table's leaf, and it
// times the packet out.
func TestAbsenceOnChannelWithoutTable(t *testing.T) {
	a, b, packets := sendPackets(t, 4)
	for b.height <= packets[0].TimeoutHeight {
		b.emptyBlock()
	}
	updateClientTo(a, b, b.height+1)
	absent := b.proveAbsent(b.height+1, app.Receipt, "channel-0", 1)
	if absent.NoTable == nil || absent.Table != nil {
		t.Fatalf("absence proof on a channel with no receipt table = %+v, want the table's absence", absent)
	}
	a.mustDeliver("relayer", &ibc.MsgTimeout{Packet: packets[0], ProofUnreceived: absent, ProofHeight: b.height + 1})
	if a.keeper.HasCommitment(ctxOf(a), "transfer", "channel-0", 1) {
		t.Fatal("commitment survives the timeout")
	}
}
