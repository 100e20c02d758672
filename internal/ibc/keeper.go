package ibc

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
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
// modules.
type Keeper struct {
	ports map[string]PortModule
	// memo remembers the decoded form of stored objects (see getJSON).
	memo map[string]memoEntry
	// enc is the buffer the light-client states are encoded into before
	// they are copied out to the store (see setRemembered).
	enc []byte
	// verifiers holds one merkle.Verifier per light client, made on
	// first use: the proofs of one relayed batch share a root and most
	// of their path.
	verifiers map[string]*merkle.Verifier
	// valsets holds the validator set each light client verifies commits
	// under, made on its first full-proof update: the set a client pins
	// never changes, so it is built once and not per header.
	valsets map[string]clientValset
	// counterparties holds, per light client, the state of the chain
	// that client tracks (see SetCounterpartyState).
	counterparties map[string]*app.State
	// sums is the chunk packet commitments are computed into (sumSlot):
	// the store keeps each by reference, and nothing writes it again.
	sums []byte
}

// clientValset is a light client's validator set and the stored
// records it was built from.
type clientValset struct {
	recs []ValidatorRecord
	set  *types.ValidatorSet
}

// NewKeeper creates the IBC keeper and registers its message handler on
// the app under RouteIBC.
func NewKeeper(a *app.App) *Keeper {
	k := &Keeper{
		ports: make(map[string]PortModule),
		memo:  make(map[string]memoEntry),
	}
	a.RegisterRoute(RouteIBC, k.handle)
	return k
}

// BindPort attaches a module to a port.
func (k *Keeper) BindPort(port string, m PortModule) { k.ports[port] = m }

// SetCounterpartyState hands the keeper the state of the chain that
// light client clientID tracks. It is the simulator's stand-in for the
// proofs performance mode does not carry: a recv is refused unless that
// state holds the packet's commitment, an ack unless it holds the
// acknowledgement's, and a timeout when it holds the packet's receipt,
// which is what each proof would prove or disprove. Under full proofs
// it is what every membership proof the keeper accepts is checked
// against. A chain executes each block within one event, so whenever
// this keeper runs, the counterparty's state is its committed state.
func (k *Keeper) SetCounterpartyState(clientID string, st *app.State) {
	if k.counterparties == nil {
		k.counterparties = make(map[string]*app.State)
	}
	k.counterparties[clientID] = st
}

// --- stored-object helpers -------------------------------------------------

// memoEntry is one remembered decode: the stored bytes it was decoded
// from and the decoded value (a *T for the key's object type).
type memoEntry struct {
	raw []byte
	val any
}

// memoCap bounds the decode memo. Clients, connections and channels are
// a handful of keys per chain, but every client update adds a consensus
// state under a new key, so an unbounded memo would grow with the length
// of the run. When it fills up it is dropped whole: the hot keys (the
// ends of open channels, the consensus heights relayers currently prove
// against) re-enter on their next read, which is cheaper and simpler
// than tracking recency per read.
const memoCap = 1024

// getJSON reads and decodes a stored object. Every packet message reads
// the same channel, connection and consensus state, so the decoded value
// is remembered per key and reused while the stored bytes are unchanged.
// The light-client states are remembered when they are written
// (setRemembered), so their reads decode nothing.
// The bytes still come from ctx.State on every call and are compared
// against the remembered ones, which makes in-transaction writes, aborted
// transactions and deletes visible without any invalidation hook. The
// value is returned by value, so a memo hit allocates nothing and the
// caller owns what it gets (a shallow copy: slices inside it, such as
// ClientState.Validators, are shared and must not be written to).
func getJSON[T any](k *Keeper, ctx *app.Context, key []byte) (zero T, ok bool) {
	raw, ok := ctx.State.Get(key)
	if !ok {
		return zero, false
	}
	if e, ok := k.memo[string(key)]; ok && bytes.Equal(e.raw, raw) {
		return *e.val.(*T), true // a key always holds the same object type
	}
	v := new(T)
	if err := json.Unmarshal(raw, v); err != nil {
		return zero, false
	}
	k.remember(key, raw, v)
	return *v, true
}

// remember records v as the decode of raw, the bytes stored under key.
func (k *Keeper) remember(key, raw []byte, v any) {
	if len(k.memo) >= memoCap {
		clear(k.memo)
	}
	// The store owns its values and nobody writes to a stored slice (the
	// rule on State.Set and State.Get), so raw can be kept by reference.
	k.memo[string(key)] = memoEntry{raw: raw, val: v}
}

// setRemembered stores a copy of k.enc, the encoding of *v, under key
// and remembers *v as its decode, so the next read of key is a memo hit.
// That holds only if json.Unmarshal makes *v again of those bytes. It
// does for the light-client states updateClient writes: their strings
// and slices come from an earlier decode, and the numbers it sets
// round-trip. A write in a transaction that aborts leaves the memo
// holding bytes the store no longer returns, so the next read misses.
func setRemembered[T any](k *Keeper, st *app.State, key []byte, v *T) {
	raw := bytes.Clone(k.enc)
	st.Set(key, raw)
	k.remember(key, raw, v)
}

func setJSON(st *app.State, key []byte, v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		// Stored objects are plain structs; marshal cannot fail.
		panic(err)
	}
	st.Set(key, raw)
}

// Client returns a stored client state.
func (k *Keeper) Client(ctx *app.Context, clientID string) (ClientState, error) {
	var b [app.KeyBufLen]byte
	cs, ok := getJSON[ClientState](k, ctx, AppendClientStateKey(b[:0], clientID))
	if !ok {
		return cs, fmt.Errorf("%w: %s", ErrClientNotFound, clientID)
	}
	return cs, nil
}

// Consensus returns a stored consensus state at a height.
func (k *Keeper) Consensus(ctx *app.Context, clientID string, height int64) (ConsensusState, error) {
	var b [app.KeyBufLen]byte
	cs, ok := getJSON[ConsensusState](k, ctx, AppendConsensusStateKey(b[:0], clientID, height))
	if !ok {
		return cs, fmt.Errorf("%w: client %s height %d", ErrConsensusNotFound, clientID, height)
	}
	return cs, nil
}

// Channel returns a stored channel end.
func (k *Keeper) Channel(ctx *app.Context, port, channel string) (ChannelEnd, error) {
	var b [app.KeyBufLen]byte
	ch, ok := getJSON[ChannelEnd](k, ctx, AppendChannelKey(b[:0], port, channel))
	if !ok {
		return ch, fmt.Errorf("%w: %s/%s", ErrChannelNotFound, port, channel)
	}
	return ch, nil
}

// Connection returns a stored connection end.
func (k *Keeper) Connection(ctx *app.Context, connID string) (ConnectionEnd, error) {
	var b [app.KeyBufLen]byte
	c, ok := getJSON[ConnectionEnd](k, ctx, AppendConnectionKey(b[:0], connID))
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
// committed state, when the keeper has it, must hold value there too. A
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
	cons, err := k.Consensus(ctx, clientID, proofHeight)
	if err != nil {
		return err
	}
	held := true
	if cp := k.counterparties[clientID]; cp != nil {
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
	v := k.verifiers[clientID]
	if v == nil {
		if k.verifiers == nil {
			k.verifiers = make(map[string]*merkle.Verifier)
		}
		v = new(merkle.Verifier)
		k.verifiers[clientID] = v
	}
	if err := v.VerifyRecord(cons.Root, r.Prefix, seq, value, proof); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrProofVerify, recordKey(r, seq), err)
	}
	if !held {
		cs, _ := k.Client(ctx, clientID) // Consensus found it
		panic(fmt.Sprintf("ibc: proof of %q on %s at proof height %d verified, but the chain does not hold that record",
			recordKey(r, seq), cs.ChainID, proofHeight))
	}
	return nil
}

// recordKey spells record seq of r's table, for error text.
func recordKey(r app.Records, seq uint64) string {
	return string(strconv.AppendUint(r.Prefix, seq, 10))
}

// verifyNonMembership checks a counterparty absence proof of record seq
// of r. With proofs disabled (performance mode) it checks the
// counterparty's committed state instead, when the keeper has it. A
// receipt written after the proof height legitimately contradicts a full
// proof, so that state does not second-guess one.
func (k *Keeper) verifyNonMembership(ctx *app.Context, clientID string, proofHeight int64, r app.Records, seq uint64, proof *merkle.RecordProof) error {
	cons, err := k.Consensus(ctx, clientID, proofHeight)
	if err != nil {
		return err
	}
	if !ctx.State.FullProofs() {
		if cp := k.counterparties[clientID]; cp != nil && cp.HasRecord(&r, seq) {
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
	case MsgUpdateClient:
		return k.updateClient(ctx, m)
	case MsgRecvPacket:
		return k.recvPacket(ctx, m)
	case MsgAcknowledgement:
		return k.acknowledgePacket(ctx, m)
	case MsgTimeout:
		return k.timeoutPacket(ctx, m)
	default:
		return fmt.Errorf("ibc: unknown message %T", msg)
	}
}

// --- clients -----------------------------------------------------------------

func (k *Keeper) updateClient(ctx *app.Context, m MsgUpdateClient) error {
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
		vs, err := k.validatorSet(m.ClientID, cs.Validators)
		if err != nil {
			return err
		}
		blockID := types.BlockID{Hash: hdr.Hash()}
		if err := vs.VerifyCommit(cs.ChainID, blockID, hdr.Height, m.Bundle.Commit); err != nil {
			return fmt.Errorf("ibc: header verification: %w", err)
		}
	}
	var b [app.KeyBufLen]byte
	if hdr.Height > cs.LatestHeight {
		cs.LatestHeight = hdr.Height
		k.enc = appendClientState(k.enc[:0], &cs)
		setRemembered(k, ctx.State, AppendClientStateKey(b[:0], m.ClientID), &cs)
	}
	cons := ConsensusState{Root: hdr.AppHash, Timestamp: hdr.Time}
	k.enc = appendConsensusState(k.enc[:0], &cons)
	setRemembered(k, ctx.State, AppendConsensusStateKey(b[:0], m.ClientID, hdr.Height), &cons)
	return nil
}

// validatorSet returns the set client clientID verifies commits under,
// given its stored validator records. The set kept for the client is
// reused only while the records are the ones it was built from, so a
// rewritten client never verifies under a stale set.
func (k *Keeper) validatorSet(clientID string, recs []ValidatorRecord) (*types.ValidatorSet, error) {
	if c, ok := k.valsets[clientID]; ok && slices.EqualFunc(c.recs, recs, func(a, b ValidatorRecord) bool {
		return a.Power == b.Power && bytes.Equal(a.PubKey, b.PubKey)
	}) {
		return c.set, nil
	}
	vals := make([]*types.Validator, len(recs))
	for i, vr := range recs {
		pk, err := valkey.PubKeyFromBytes(vr.PubKey)
		if err != nil {
			return nil, fmt.Errorf("ibc: client %s validator %d: %w", clientID, i, err)
		}
		vals[i] = &types.Validator{Address: pk.Address(), PubKey: pk, VotingPower: vr.Power}
	}
	if k.valsets == nil {
		k.valsets = make(map[string]clientValset)
	}
	c := clientValset{recs: recs, set: types.NewValidatorSet(vals)}
	k.valsets[clientID] = c
	return c.set, nil
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
func SeedOpenEnd(st *app.State, self, cp EndIDs, client ClientState) {
	var b [app.KeyBufLen]byte
	client.LatestHeight = 1
	setJSON(st, AppendClientStateKey(b[:0], self.Client), client)
	setJSON(st, AppendConnectionKey(b[:0], self.Connection), ConnectionEnd{
		State:                StateOpen,
		ClientID:             self.Client,
		CounterpartyConnID:   cp.Connection,
		CounterpartyClientID: cp.Client,
	})
	setJSON(st, AppendChannelKey(b[:0], self.Port, self.Channel), ChannelEnd{
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
// event carries a *Packet: the one record the event index, the relayers
// and the workload all point at. It is immutable once emitted.
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
	ctx.State.Set(seqKey, strconv.AppendUint(nil, seq+1, 10))
	commitments := PacketRecords(b[:0], app.Commitment, port, channel)
	p := Packet{
		Sequence:         seq,
		SourcePort:       port,
		SourceChannel:    channel,
		DestPort:         ch.CounterpartyPort,
		DestChannel:      ch.CounterpartyChan,
		Data:             data,
		TimeoutHeight:    timeoutHeight,
		TimeoutTimestamp: timeoutTimestamp,
	}
	ctx.State.SetRecord(&commitments, seq, p.AppendCommitment(k.sumSlot()))
	ctx.Emit(abci.Event{Type: "send_packet", Data: &p})
	return p, nil
}

// recvPacket verifies and executes an inbound packet, writing the
// receipt and — unless the port module answers asynchronously — the
// acknowledgement.
func (k *Keeper) recvPacket(ctx *app.Context, m MsgRecvPacket) error {
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
// *AckWrite, shared and immutable once emitted like SendPacket's packet.
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
	ctx.Emit(abci.Event{Type: "write_acknowledgement", Data: &AckWrite{Packet: p, Ack: raw}})
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
func (k *Keeper) acknowledgePacket(ctx *app.Context, m MsgAcknowledgement) error {
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
func (k *Keeper) timeoutPacket(ctx *app.Context, m MsgTimeout) error {
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

// sumSlot returns an empty slice with room for one packet commitment,
// cut from k.sums.
func (k *Keeper) sumSlot() []byte {
	if cap(k.sums)-len(k.sums) < sha256.Size {
		k.sums = make([]byte, 0, 256*sha256.Size)
	}
	n := len(k.sums)
	k.sums = k.sums[:n+sha256.Size]
	return k.sums[n : n : n+sha256.Size]
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
