package ibc

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"strconv"
	"time"

	"ibcbench/internal/abci"
	"ibcbench/internal/app"
	"ibcbench/internal/merkle"
	"ibcbench/internal/tendermint/types"
	"ibcbench/internal/valkey"
)

// Keeper errors.
var (
	ErrClientNotFound     = errors.New("ibc: client not found")
	ErrConsensusNotFound  = errors.New("ibc: consensus state not found at height")
	ErrConnectionNotFound = errors.New("ibc: connection not found")
	ErrChannelNotFound    = errors.New("ibc: channel not found")
	ErrChannelNotOpen     = errors.New("ibc: channel not open")
	// ErrRedundantPacket is the failure two uncoordinated relayers hit
	// when both deliver the same packet: "packet messages are redundant"
	// (§IV-A).
	ErrRedundantPacket = errors.New("packet messages are redundant")
	ErrPacketTimedOut  = errors.New("ibc: packet timeout elapsed")
	ErrTimeoutTooEarly = errors.New("ibc: timeout not yet elapsed on counterparty")
	ErrProofVerify     = errors.New("ibc: proof verification failed")
	ErrCommitmentGone  = errors.New("ibc: packet commitment not found")
)

// PortModule is a packet-handling application module bound to a port
// (ICS-5/ICS-26). The transfer module implements it; middleware (packet
// forwarding) wraps it.
type PortModule interface {
	// OnRecvPacket processes an inbound packet and returns the ack. A nil
	// return means the acknowledgement is asynchronous: the module (or a
	// middleware above it) will deliver it later via the keeper's
	// WriteAcknowledgement — the mechanism packet-forward middleware uses
	// to hold the origin's ack open until the next hop settles.
	OnRecvPacket(ctx *app.Context, packet Packet) *Acknowledgement
	// OnAcknowledgementPacket processes an ack for a sent packet.
	OnAcknowledgementPacket(ctx *app.Context, packet Packet, ack Acknowledgement) error
	// OnTimeoutPacket reverts a packet that timed out.
	OnTimeoutPacket(ctx *app.Context, packet Packet) error
}

// Keeper owns the IBC state of one chain and routes packets to port
// modules. The host objects it reads (client and consensus states,
// connection and channel ends) live typed in the chain's app.State
// beside their bytes (see setObject), so a read decodes nothing.
type Keeper struct {
	ports map[string]PortModule
	// The chunks what the keeper stores and emits is cut from: the store
	// keeps a packet commitment or a send counter by reference, and the
	// event index, relayers and workload point at an emitted packet or
	// acknowledgement. Nothing written there is written again.
	vals    app.Chunk[byte]
	packets app.Chunk[Packet]
	acks    app.Chunk[AckWrite]
}

// NewKeeper creates the IBC keeper and registers its message handler on
// the app under RouteIBC.
func NewKeeper(a *app.App) *Keeper {
	k := &Keeper{ports: make(map[string]PortModule)}
	a.RegisterRoute(RouteIBC, k.handle)
	return k
}

// BindPort attaches a module to a port.
func (k *Keeper) BindPort(port string, m PortModule) { k.ports[port] = m }

// --- stored objects ------------------------------------------------------------

// setObject stores host object obj, a ClientState, ConsensusState,
// ConnectionEnd or ChannelEnd, under key: the bytes json.Marshal writes
// for it, which the root hashes and proofs carry, and obj itself, which
// the keeper's reads return (app.State.Object). Like the bytes, obj is
// never written to once stored; a read returns a copy of it.
func setObject(st *app.State, key []byte, obj any) {
	var buf [1024]byte // room for a client state pinning a dozen validators
	var b []byte
	switch o := obj.(type) {
	case ClientState:
		b = appendClientState(buf[:0], &o)
	case ConsensusState:
		b = appendConsensusState(buf[:0], &o)
	case ConnectionEnd:
		b = appendConnectionEnd(buf[:0], &o)
	case ChannelEnd:
		b = appendChannelEnd(buf[:0], &o)
	default:
		panic(fmt.Sprintf("ibc: %T is not a host object", obj))
	}
	st.SetObject(key, bytes.Clone(b), obj)
}

// Client returns a stored client state.
func (k *Keeper) Client(ctx *app.Context, clientID string) (ClientState, error) {
	var b [app.KeyBufLen]byte
	cs, ok := ctx.State.Object(AppendClientStateKey(b[:0], clientID)).(ClientState)
	if !ok {
		return cs, fmt.Errorf("%w: %s", ErrClientNotFound, clientID)
	}
	return cs, nil
}

// Consensus returns a stored consensus state at a height.
func (k *Keeper) Consensus(ctx *app.Context, clientID string, height int64) (ConsensusState, error) {
	var b [app.KeyBufLen]byte
	cs, ok := ctx.State.Object(AppendConsensusStateKey(b[:0], clientID, height)).(ConsensusState)
	if !ok {
		return cs, fmt.Errorf("%w: client %s height %d", ErrConsensusNotFound, clientID, height)
	}
	return cs, nil
}

// Channel returns a stored channel end.
func (k *Keeper) Channel(ctx *app.Context, port, channel string) (ChannelEnd, error) {
	var b [app.KeyBufLen]byte
	ch, ok := ctx.State.Object(AppendChannelKey(b[:0], port, channel)).(ChannelEnd)
	if !ok {
		return ch, fmt.Errorf("%w: %s/%s", ErrChannelNotFound, port, channel)
	}
	return ch, nil
}

// Connection returns a stored connection end.
func (k *Keeper) Connection(ctx *app.Context, connID string) (ConnectionEnd, error) {
	var b [app.KeyBufLen]byte
	c, ok := ctx.State.Object(AppendConnectionKey(b[:0], connID)).(ConnectionEnd)
	if !ok {
		return c, fmt.Errorf("%w: %s", ErrConnectionNotFound, connID)
	}
	return c, nil
}

// clientForChannel resolves the light client a channel's packets are
// verified against.
func (k *Keeper) clientForChannel(ctx *app.Context, port, channel string) (string, ChannelEnd, error) {
	ch, err := k.Channel(ctx, port, channel)
	if err != nil {
		return "", ch, err
	}
	conn, err := k.Connection(ctx, ch.ConnectionID)
	if err != nil {
		return "", ch, err
	}
	return conn.ClientID, ch, nil
}

// --- proof verification ------------------------------------------------------

// verifyMembership checks a counterparty state inclusion proof of record
// seq of r against the consensus root at proofHeight. The counterparty's
// committed state, when the client has it, must hold value there too. A
// packet's commitment and acknowledgement records are what a recv and an
// ack prove, and neither is rewritten once stored, so that state answers
// as the proof would: recvPacket refuses a packet already received or
// timed out before it asks, and an ack record is never deleted. With
// proofs disabled (performance mode) that state is the whole check; with
// full proofs a proof it contradicts is a bug in the proof path, and
// panics. A full proof is two-level (merkle.RecordProof): the record's
// path in its table's array, then the table's leaf, keyed by r's prefix.
// The record's key is spelled out only for error text.
func (k *Keeper) verifyMembership(ctx *app.Context, clientID string, proofHeight int64, r app.Records, seq uint64, value []byte, proof *merkle.RecordProof) error {
	cs, cons, err := k.clientAt(ctx, clientID, proofHeight)
	if err != nil {
		return err
	}
	held := true
	if cp := cs.counterparty; cp != nil {
		v, ok := cp.GetRecord(&r, seq)
		held = ok && bytes.Equal(v, value)
	}
	if !ctx.State.FullProofs() {
		if !held {
			return fmt.Errorf("%w: %s is not committed on the counterparty", ErrProofVerify, recordKey(r, seq))
		}
		return nil
	}
	if proof == nil {
		return fmt.Errorf("%w: missing membership proof for %s", ErrProofVerify, recordKey(r, seq))
	}
	// A client no full-proof update has stored yet has no verifier.
	if v := cs.verifier; v != nil {
		err = v.VerifyRecord(cons.Root, r.Prefix, seq, value, proof)
	} else {
		err = merkle.VerifyRecord(cons.Root, r.Prefix, seq, value, proof)
	}
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrProofVerify, recordKey(r, seq), err)
	}
	if !held {
		panic(fmt.Sprintf("ibc: proof of %q on %s at proof height %d verified, but the chain does not hold that record",
			recordKey(r, seq), cs.ChainID, proofHeight))
	}
	return nil
}

// clientAt returns client clientID's state and its consensus state at
// height.
func (k *Keeper) clientAt(ctx *app.Context, clientID string, height int64) (ClientState, ConsensusState, error) {
	cons, err := k.Consensus(ctx, clientID, height)
	if err != nil {
		return ClientState{}, cons, err
	}
	cs, err := k.Client(ctx, clientID)
	return cs, cons, err
}

// recordKey spells record seq of r's table, for error text.
func recordKey(r app.Records, seq uint64) string {
	return string(strconv.AppendUint(r.Prefix, seq, 10))
}

// verifyNonMembership checks a counterparty absence proof of record seq
// of r. With proofs disabled (performance mode) it checks the
// counterparty's committed state instead, when the client has it. A
// receipt written after the proof height legitimately contradicts a full
// proof, so that state does not second-guess one.
func (k *Keeper) verifyNonMembership(ctx *app.Context, clientID string, proofHeight int64, r app.Records, seq uint64, proof *merkle.RecordProof) error {
	cs, cons, err := k.clientAt(ctx, clientID, proofHeight)
	if err != nil {
		return err
	}
	if !ctx.State.FullProofs() {
		if cp := cs.counterparty; cp != nil && cp.HasRecord(&r, seq) {
			return fmt.Errorf("%w: %s is present on the counterparty", ErrProofVerify, recordKey(r, seq))
		}
		return nil
	}
	if proof == nil {
		return fmt.Errorf("%w: missing non-membership proof for %s", ErrProofVerify, recordKey(r, seq))
	}
	if err := merkle.VerifyRecordAbsent(cons.Root, r.Prefix, seq, proof); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrProofVerify, recordKey(r, seq), err)
	}
	return nil
}

// --- message handler ---------------------------------------------------------

// handle is the app.Handler for all core IBC messages.
func (k *Keeper) handle(ctx *app.Context, msg app.Msg) error {
	switch m := msg.(type) {
	case *MsgUpdateClient:
		return k.updateClient(ctx, m)
	case *MsgRecvPacket:
		return k.recvPacket(ctx, m)
	case *MsgAcknowledgement:
		return k.acknowledgePacket(ctx, m)
	case *MsgTimeout:
		return k.timeoutPacket(ctx, m)
	default:
		return fmt.Errorf("ibc: unknown message %T", msg)
	}
}

// --- clients -----------------------------------------------------------------

func (k *Keeper) updateClient(ctx *app.Context, m *MsgUpdateClient) error {
	cs, err := k.Client(ctx, m.ClientID)
	if err != nil {
		return err
	}
	hdr := m.Bundle.Header
	if hdr.ChainID != cs.ChainID {
		return fmt.Errorf("ibc: header chain %q, client tracks %q", hdr.ChainID, cs.ChainID)
	}
	// Under full proofs, verify every commit signature under the pinned
	// validator set; performance mode trusts the header as it trusts
	// proofs.
	if ctx.State.FullProofs() {
		if cs.valset == nil {
			if cs.valset, err = validatorSet(m.ClientID, cs.Validators); err != nil {
				return err
			}
			cs.verifier = new(merkle.Verifier)
		}
		blockID := types.BlockID{Hash: hdr.Hash()}
		if err := cs.valset.VerifyCommit(cs.ChainID, blockID, hdr.Height, m.Bundle.Commit); err != nil {
			return fmt.Errorf("ibc: header verification: %w", err)
		}
	}
	var b [app.KeyBufLen]byte
	if hdr.Height > cs.LatestHeight {
		cs.LatestHeight = hdr.Height
		setObject(ctx.State, AppendClientStateKey(b[:0], m.ClientID), cs)
	}
	setObject(ctx.State, AppendConsensusStateKey(b[:0], m.ClientID, hdr.Height), ConsensusState{Root: hdr.AppHash, Timestamp: hdr.Time})
	return nil
}

// validatorSet builds the set client clientID verifies commits under
// from its stored validator records.
func validatorSet(clientID string, recs []ValidatorRecord) (*types.ValidatorSet, error) {
	vals := make([]*types.Validator, len(recs))
	for i, vr := range recs {
		pk, err := valkey.PubKeyFromBytes(vr.PubKey)
		if err != nil {
			return nil, fmt.Errorf("ibc: client %s validator %d: %w", clientID, i, err)
		}
		vals[i] = &types.Validator{Address: pk.Address(), PubKey: pk, VotingPower: vr.Power}
	}
	return types.NewValidatorSet(vals), nil
}

// --- opening a channel ---------------------------------------------------------

// EndIDs names one chain's end of a channel: its port and channel, the
// connection the channel runs over, and the light client of the
// counterparty that the connection verifies proofs against.
type EndIDs struct {
	Port, Channel, Connection, Client string
}

// SeedOpenEnd writes self's end of an open channel to the counterparty
// end cp, as a completed connection and channel handshake leaves it: the
// counterparty's client state at height 1 (its consensus states arrive
// with the first MsgUpdateClient), the open connection end, the open
// unordered ics20-1 channel end and the send counter 1. The handshake
// itself is not simulated: the paper opens its channel once, with
// `hermes create channel`, before it measures. The writes join st's
// current transaction; the caller commits it.
//
// counterparty, the state of the chain client describes, is the
// simulator's stand-in for the proofs performance mode does not carry,
// and hangs off the stored client state: a recv is refused unless that
// state holds the packet's commitment, an ack unless it holds the
// acknowledgement's, and a timeout when it holds the packet's receipt,
// which is what each proof would prove or disprove. Under full proofs it
// is what every membership proof the keeper accepts is checked against.
// A chain executes each block within one event, so whenever this keeper
// runs, the counterparty's state is its committed state. A nil
// counterparty leaves the client without these checks.
func SeedOpenEnd(st *app.State, self, cp EndIDs, client ClientState, counterparty *app.State) {
	var b [app.KeyBufLen]byte
	client.LatestHeight = 1
	client.counterparty = counterparty
	setObject(st, AppendClientStateKey(b[:0], self.Client), client)
	setObject(st, AppendConnectionKey(b[:0], self.Connection), ConnectionEnd{
		State:                StateOpen,
		ClientID:             self.Client,
		CounterpartyConnID:   cp.Connection,
		CounterpartyClientID: cp.Client,
	})
	setObject(st, AppendChannelKey(b[:0], self.Port, self.Channel), ChannelEnd{
		State:            StateOpen,
		Ordering:         Unordered,
		CounterpartyPort: cp.Port,
		CounterpartyChan: cp.Channel,
		ConnectionID:     self.Connection,
		Version:          "ics20-1",
	})
	st.Set(AppendNextSequenceSendKey(b[:0], self.Port, self.Channel), []byte("1"))
}

// --- packet lifecycle -------------------------------------------------------------

// SendPacket stores a packet commitment and emits the send_packet event
// the relayer watches for. Called by port modules (e.g. transfer). The
// event carries a *Packet, cut from the keeper's chunk: the one record
// the event index, the relayers and the workload all point at. It is
// immutable once emitted.
func (k *Keeper) SendPacket(ctx *app.Context, port, channel string, data []byte, timeoutHeight int64, timeoutTimestamp time.Duration) (Packet, error) {
	ch, err := k.Channel(ctx, port, channel)
	if err != nil {
		return Packet{}, err
	}
	if ch.State != StateOpen {
		return Packet{}, fmt.Errorf("%w: %s/%s", ErrChannelNotOpen, port, channel)
	}
	// SeedOpenEnd stores the counter "1": reading an absent or bad one as
	// 1 would overwrite a live commitment.
	var b [app.KeyBufLen]byte
	seqKey := AppendNextSequenceSendKey(b[:0], port, channel)
	raw, _ := ctx.State.Get(seqKey)
	seq, err := strconv.ParseUint(string(raw), 10, 64)
	if err != nil {
		return Packet{}, fmt.Errorf("ibc: send sequence of %s/%s: %q is not a counter", port, channel, raw)
	}
	ctx.State.Set(seqKey, strconv.AppendUint(k.vals.Slot(len(raw)+1), seq+1, 10))
	commitments := PacketRecords(b[:0], app.Commitment, port, channel)
	p := k.packets.New()
	*p = Packet{
		Sequence:         seq,
		SourcePort:       port,
		SourceChannel:    channel,
		DestPort:         ch.CounterpartyPort,
		DestChannel:      ch.CounterpartyChan,
		Data:             data,
		TimeoutHeight:    timeoutHeight,
		TimeoutTimestamp: timeoutTimestamp,
	}
	ctx.State.SetRecord(&commitments, seq, p.AppendCommitment(k.vals.Slot(sha256.Size)))
	ctx.Emit(abci.Event{Type: "send_packet", Data: p})
	return *p, nil
}

// recvPacket verifies and executes an inbound packet, writing the
// receipt and — unless the port module answers asynchronously — the
// acknowledgement.
func (k *Keeper) recvPacket(ctx *app.Context, m *MsgRecvPacket) error {
	p := m.Packet
	clientID, ch, err := k.clientForChannel(ctx, p.DestPort, p.DestChannel)
	if err != nil {
		return err
	}
	if ch.State != StateOpen {
		return fmt.Errorf("%w: %s/%s", ErrChannelNotOpen, p.DestPort, p.DestChannel)
	}
	if ch.CounterpartyPort != p.SourcePort || ch.CounterpartyChan != p.SourceChannel {
		return fmt.Errorf("ibc: packet route mismatch")
	}
	if timeoutElapsed(&p, ctx.Height, ctx.Time) {
		return fmt.Errorf("%w: height %d time %v", ErrPacketTimedOut, ctx.Height, ctx.Time)
	}
	// Unordered channel: exactly-once via receipts.
	var b, pb [app.KeyBufLen]byte
	receipts := PacketRecords(b[:0], app.Receipt, p.DestPort, p.DestChannel)
	if ctx.State.HasRecord(&receipts, p.Sequence) {
		return fmt.Errorf("%w: %s/%s seq %d", ErrRedundantPacket, p.SourcePort, p.SourceChannel, p.Sequence)
	}
	// Verify the source chain committed this packet.
	var sum [sha256.Size]byte
	commitments := PacketRecords(pb[:0], app.Commitment, p.SourcePort, p.SourceChannel)
	if err := k.verifyMembership(ctx, clientID, m.ProofHeight, commitments, p.Sequence, p.AppendCommitment(sum[:0]), m.ProofCommitment); err != nil {
		return err
	}
	ctx.State.SetRecord(&receipts, p.Sequence, receiptValue)

	mod, ok := k.ports[p.DestPort]
	if !ok {
		return fmt.Errorf("ibc: no module bound to port %s", p.DestPort)
	}
	ack := mod.OnRecvPacket(ctx, p)
	if ack == nil {
		// Asynchronous acknowledgement: the receipt blocks redelivery; a
		// middleware writes the ack once the downstream leg settles.
		return nil
	}
	return k.WriteAcknowledgement(ctx, p, *ack)
}

// WriteAcknowledgement stores the acknowledgement for a received packet
// and emits the write_acknowledgement event relayers turn into
// MsgAcknowledgements. Port modules answering synchronously never call
// it directly; async middleware (packet forwarding) calls it when the
// downstream hop acks, errors or times out. The event carries an
// *AckWrite cut from the keeper's chunk, shared and immutable once
// emitted like SendPacket's packet.
// A success ack stores and emits the shared literals of its encoding and
// commitment.
func (k *Keeper) WriteAcknowledgement(ctx *app.Context, p Packet, ack Acknowledgement) error {
	var b [app.KeyBufLen]byte
	acks := PacketRecords(b[:0], app.Ack, p.DestPort, p.DestChannel)
	if ctx.State.HasRecord(&acks, p.Sequence) {
		return fmt.Errorf("ibc: acknowledgement for %s/%s seq %d already written",
			p.DestPort, p.DestChannel, p.Sequence)
	}
	raw := successAckBytes
	if ack.Error != "" || string(ack.Result) != string(SuccessAck.Result) {
		raw = ack.Bytes()
	}
	ctx.State.SetRecord(&acks, p.Sequence, ackCommitment(nil, raw))
	w := k.acks.New()
	*w = AckWrite{Packet: p, Ack: raw}
	ctx.Emit(abci.Event{Type: "write_acknowledgement", Data: w})
	return nil
}

// LatestClientHeight reports the counterparty height of the light client
// a channel's packets are verified against — the on-chain information a
// forwarding middleware has for choosing next-hop timeout heights.
func (k *Keeper) LatestClientHeight(ctx *app.Context, port, channel string) (int64, error) {
	clientID, _, err := k.clientForChannel(ctx, port, channel)
	if err != nil {
		return 0, err
	}
	cs, err := k.Client(ctx, clientID)
	if err != nil {
		return 0, err
	}
	return cs.LatestHeight, nil
}

// acknowledgePacket completes the transfer on the source chain.
func (k *Keeper) acknowledgePacket(ctx *app.Context, m *MsgAcknowledgement) error {
	p := m.Packet
	clientID, ch, err := k.clientForChannel(ctx, p.SourcePort, p.SourceChannel)
	if err != nil {
		return err
	}
	if ch.State != StateOpen {
		return fmt.Errorf("%w: %s/%s", ErrChannelNotOpen, p.SourcePort, p.SourceChannel)
	}
	var b, pb [app.KeyBufLen]byte
	commitments := PacketRecords(b[:0], app.Commitment, p.SourcePort, p.SourceChannel)
	if !ctx.State.HasRecord(&commitments, p.Sequence) {
		// Already acknowledged or timed out: redundant relay.
		return fmt.Errorf("%w: ack for seq %d", ErrRedundantPacket, p.Sequence)
	}
	var sum [sha256.Size]byte
	acks := PacketRecords(pb[:0], app.Ack, p.DestPort, p.DestChannel)
	if err := k.verifyMembership(ctx, clientID, m.ProofHeight, acks, p.Sequence, ackCommitment(sum[:0], m.Ack), m.ProofAcked); err != nil {
		return err
	}
	ctx.State.DeleteRecord(&commitments, p.Sequence)

	mod, ok := k.ports[p.SourcePort]
	if !ok {
		return fmt.Errorf("ibc: no module bound to port %s", p.SourcePort)
	}
	ack, err := ParseAck(m.Ack)
	if err != nil {
		return err
	}
	return mod.OnAcknowledgementPacket(ctx, p, ack)
}

// timeoutPacket aborts a packet on the source chain after proving
// non-receipt on the destination past the timeout.
func (k *Keeper) timeoutPacket(ctx *app.Context, m *MsgTimeout) error {
	p := m.Packet
	clientID, _, err := k.clientForChannel(ctx, p.SourcePort, p.SourceChannel)
	if err != nil {
		return err
	}
	var b, pb [app.KeyBufLen]byte
	commitments := PacketRecords(b[:0], app.Commitment, p.SourcePort, p.SourceChannel)
	if !ctx.State.HasRecord(&commitments, p.Sequence) {
		return fmt.Errorf("%w: timeout for seq %d", ErrRedundantPacket, p.Sequence)
	}
	// The consensus state at proofHeight must be past the timeout.
	cons, err := k.Consensus(ctx, clientID, m.ProofHeight)
	if err != nil {
		return err
	}
	elapsed := false
	if p.TimeoutHeight > 0 && m.ProofHeight >= p.TimeoutHeight {
		elapsed = true
	}
	if p.TimeoutTimestamp > 0 && cons.Timestamp >= p.TimeoutTimestamp {
		elapsed = true
	}
	if !elapsed {
		return fmt.Errorf("%w: seq %d at proof height %d", ErrTimeoutTooEarly, p.Sequence, m.ProofHeight)
	}
	receipts := PacketRecords(pb[:0], app.Receipt, p.DestPort, p.DestChannel)
	if err := k.verifyNonMembership(ctx, clientID, m.ProofHeight, receipts, p.Sequence, m.ProofUnreceived); err != nil {
		return err
	}
	ctx.State.DeleteRecord(&commitments, p.Sequence)

	mod, ok := k.ports[p.SourcePort]
	if !ok {
		return fmt.Errorf("ibc: no module bound to port %s", p.SourcePort)
	}
	return mod.OnTimeoutPacket(ctx, p)
}

// appendHashAck appends the commitment of acknowledgement bytes ack.
func appendHashAck(dst, ack []byte) []byte {
	h := merkle.LeafHash([]byte("ack"), ack)
	return append(dst, h[:]...)
}

// ackCommitment is what an acknowledgement's record stores for ack
// bytes raw: the shared literal for the success ack, else its hash,
// appended to dst.
func ackCommitment(dst, raw []byte) []byte {
	if string(raw) == string(successAckBytes) {
		return successAckCommitment
	}
	return appendHashAck(dst, raw)
}

// HasCommitment reports whether a packet commitment is still stored
// (pending, not yet acknowledged or timed out).
func (k *Keeper) HasCommitment(ctx *app.Context, port, channel string, seq uint64) bool {
	var b [app.KeyBufLen]byte
	r := PacketRecords(b[:0], app.Commitment, port, channel)
	return ctx.State.HasRecord(&r, seq)
}

// HasReceipt reports whether a packet was received.
func (k *Keeper) HasReceipt(ctx *app.Context, port, channel string, seq uint64) bool {
	var b [app.KeyBufLen]byte
	r := PacketRecords(b[:0], app.Receipt, port, channel)
	return ctx.State.HasRecord(&r, seq)
}
