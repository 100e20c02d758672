package ibc

import (
	"bytes"
	"encoding/json"
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
	ErrInvalidHandshake   = errors.New("ibc: handshake state mismatch")
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
	// voteVerifiers maps a counterparty chain ID to that chain's shared
	// vote-verification engine: commit signatures its consensus already
	// admitted are not re-verified when this chain's light client accepts
	// a header (the simulator's process-wide equivalent of verify-once).
	voteVerifiers map[string]types.VoteVerifier
	// memo remembers the decoded form of stored objects (see getJSON).
	memo map[string]memoEntry
}

// NewKeeper creates the IBC keeper and registers its message handler on
// the app under RouteIBC.
func NewKeeper(a *app.App) *Keeper {
	k := &Keeper{
		ports:         make(map[string]PortModule),
		voteVerifiers: make(map[string]types.VoteVerifier),
		memo:          make(map[string]memoEntry),
	}
	a.RegisterRoute(RouteIBC, k.handle)
	return k
}

// BindPort attaches a module to a port.
func (k *Keeper) BindPort(port string, m PortModule) { k.ports[port] = m }

// RegisterVoteVerifier wires a counterparty chain's vote-verification
// engine into this keeper's light-client header checks. Unregistered
// counterparties fall back to full per-signature verification.
func (k *Keeper) RegisterVoteVerifier(chainID string, vv types.VoteVerifier) {
	k.voteVerifiers[chainID] = vv
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
	if len(k.memo) >= memoCap {
		clear(k.memo)
	}
	// The store owns its values and nobody writes to a stored slice (the
	// rule on State.Set and State.Get), so raw can be kept by reference.
	k.memo[string(key)] = memoEntry{raw: raw, val: v}
	return *v, true
}

func setJSON(ctx *app.Context, key []byte, v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		// Stored objects are plain structs; marshal cannot fail.
		panic(err)
	}
	ctx.State.Set(key, raw)
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

// verifyMembership checks a counterparty state inclusion proof against
// the consensus root at proofHeight. With proofs disabled (performance
// mode) it only checks the consensus state exists, and key and value go
// unread.
func (k *Keeper) verifyMembership(ctx *app.Context, clientID string, proofHeight int64, key, value []byte, proof *Proof) error {
	cons, err := k.Consensus(ctx, clientID, proofHeight)
	if err != nil {
		return err
	}
	if !ctx.State.FullProofs() {
		return nil
	}
	if proof == nil || proof.Membership == nil {
		return fmt.Errorf("%w: missing membership proof for %s", ErrProofVerify, string(key))
	}
	if err := merkle.VerifyMembership(cons.Root, key, value, proof.Membership); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrProofVerify, string(key), err)
	}
	return nil
}

// verifyNonMembership checks a counterparty absence proof.
func (k *Keeper) verifyNonMembership(ctx *app.Context, clientID string, proofHeight int64, key []byte, proof *Proof) error {
	cons, err := k.Consensus(ctx, clientID, proofHeight)
	if err != nil {
		return err
	}
	if !ctx.State.FullProofs() {
		return nil
	}
	if proof == nil || proof.NonMembership == nil {
		return fmt.Errorf("%w: missing non-membership proof for %s", ErrProofVerify, string(key))
	}
	if err := merkle.VerifyNonMembership(cons.Root, key, proof.NonMembership); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrProofVerify, string(key), err)
	}
	return nil
}

// --- message handler ---------------------------------------------------------

// handle is the app.Handler for all core IBC messages.
func (k *Keeper) handle(ctx *app.Context, msg app.Msg) error {
	switch m := msg.(type) {
	case MsgCreateClient:
		return k.createClient(ctx, m)
	case MsgUpdateClient:
		return k.updateClient(ctx, m)
	case MsgConnOpenInit:
		return k.connOpenInit(ctx, m)
	case MsgConnOpenTry:
		return k.connOpenTry(ctx, m)
	case MsgConnOpenAck:
		return k.openConnection(ctx, m.ConnID, StateInit, StateTryOpen, m.ProofHeight, m.ProofTry)
	case MsgConnOpenConfirm:
		return k.openConnection(ctx, m.ConnID, StateTryOpen, StateOpen, m.ProofHeight, m.ProofAck)
	case MsgChanOpenInit:
		return k.chanOpenInit(ctx, m)
	case MsgChanOpenTry:
		return k.chanOpenTry(ctx, m)
	case MsgChanOpenAck:
		return k.openChannel(ctx, m.Port, m.Channel, StateInit, StateTryOpen, m.ProofHeight, m.ProofTry)
	case MsgChanOpenConfirm:
		return k.openChannel(ctx, m.Port, m.Channel, StateTryOpen, StateOpen, m.ProofHeight, m.ProofAck)
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

func (k *Keeper) createClient(ctx *app.Context, m MsgCreateClient) error {
	var b [app.KeyBufLen]byte
	key := AppendClientStateKey(b[:0], m.ClientID)
	if ctx.State.Has(key) {
		return fmt.Errorf("ibc: client %s exists", m.ClientID)
	}
	st := m.State
	st.LatestHeight = m.InitialHeight
	setJSON(ctx, key, st)
	setJSON(ctx, AppendConsensusStateKey(b[:0], m.ClientID, m.InitialHeight), m.InitialConsensus)
	return nil
}

func (k *Keeper) updateClient(ctx *app.Context, m MsgUpdateClient) error {
	cs, err := k.Client(ctx, m.ClientID)
	if err != nil {
		return err
	}
	hdr := m.Bundle.Header
	if hdr.ChainID != cs.ChainID {
		return fmt.Errorf("ibc: header chain %q, client tracks %q", hdr.ChainID, cs.ChainID)
	}
	// Verify the commit under the pinned validator set. In performance
	// mode the signatures are still structurally present; verification
	// runs whenever the commit carries signatures.
	if ctx.State.FullProofs() {
		vals := make([]*types.Validator, len(cs.Validators))
		for i, vr := range cs.Validators {
			pk, err := valkey.PubKeyFromBytes(vr.PubKey)
			if err != nil {
				return fmt.Errorf("ibc: client %s validator %d: %w", m.ClientID, i, err)
			}
			vals[i] = &types.Validator{Address: pk.Address(), PubKey: pk, VotingPower: vr.Power}
		}
		vs := types.NewValidatorSet(vals)
		blockID := types.BlockID{Hash: hdr.Hash()}
		// Batched fast path: signatures the source chain's live vote path
		// already admitted are not re-verified (nil verifier = full check).
		if err := vs.VerifyCommitCached(cs.ChainID, blockID, hdr.Height,
			m.Bundle.Commit, k.voteVerifiers[cs.ChainID]); err != nil {
			return fmt.Errorf("ibc: header verification: %w", err)
		}
	}
	var b [app.KeyBufLen]byte
	if hdr.Height > cs.LatestHeight {
		cs.LatestHeight = hdr.Height
		setJSON(ctx, AppendClientStateKey(b[:0], m.ClientID), cs)
	}
	setJSON(ctx, AppendConsensusStateKey(b[:0], m.ClientID, hdr.Height), ConsensusState{
		Root:      hdr.AppHash,
		Timestamp: hdr.Time,
	})
	return nil
}

// --- connection handshake ------------------------------------------------------

func (k *Keeper) connOpenInit(ctx *app.Context, m MsgConnOpenInit) error {
	var b [app.KeyBufLen]byte
	key := AppendConnectionKey(b[:0], m.ConnID)
	if ctx.State.Has(key) {
		return fmt.Errorf("ibc: connection %s exists", m.ConnID)
	}
	if _, err := k.Client(ctx, m.ClientID); err != nil {
		return err
	}
	setJSON(ctx, key, ConnectionEnd{
		State:                StateInit,
		ClientID:             m.ClientID,
		CounterpartyConnID:   m.CounterpartyConnID,
		CounterpartyClientID: m.CounterpartyClientID,
	})
	return nil
}

func (k *Keeper) connOpenTry(ctx *app.Context, m MsgConnOpenTry) error {
	if _, err := k.Client(ctx, m.ClientID); err != nil {
		return err
	}
	// Verify the counterparty recorded INIT for this pair.
	expected := ConnectionEnd{
		State:                StateInit,
		ClientID:             m.CounterpartyClientID,
		CounterpartyConnID:   m.ConnID,
		CounterpartyClientID: m.ClientID,
	}
	raw, _ := json.Marshal(expected)
	var b [app.KeyBufLen]byte
	if err := k.verifyMembership(ctx, m.ClientID, m.ProofHeight,
		AppendConnectionKey(b[:0], m.CounterpartyConnID), raw, m.ProofInit); err != nil {
		return err
	}
	setJSON(ctx, AppendConnectionKey(b[:0], m.ConnID), ConnectionEnd{
		State:                StateTryOpen,
		ClientID:             m.ClientID,
		CounterpartyConnID:   m.CounterpartyConnID,
		CounterpartyClientID: m.CounterpartyClientID,
	})
	return nil
}

// openConnection finishes the connection handshake on one end (ack on
// the INIT end, confirm on the TRYOPEN end): the end must be in state
// from, and the counterparty must prove its end in state cp.
func (k *Keeper) openConnection(ctx *app.Context, connID string, from, cp HandshakeState, proofHeight int64, proof *Proof) error {
	conn, err := k.Connection(ctx, connID)
	if err != nil {
		return err
	}
	if conn.State != from {
		return fmt.Errorf("%w: connection %s in state %d", ErrInvalidHandshake, connID, conn.State)
	}
	expected := ConnectionEnd{
		State:                cp,
		ClientID:             conn.CounterpartyClientID,
		CounterpartyConnID:   connID,
		CounterpartyClientID: conn.ClientID,
	}
	raw, _ := json.Marshal(expected)
	var b [app.KeyBufLen]byte
	if err := k.verifyMembership(ctx, conn.ClientID, proofHeight,
		AppendConnectionKey(b[:0], conn.CounterpartyConnID), raw, proof); err != nil {
		return err
	}
	conn.State = StateOpen
	setJSON(ctx, AppendConnectionKey(b[:0], connID), conn)
	return nil
}

// --- channel handshake ----------------------------------------------------------

func (k *Keeper) chanOpenInit(ctx *app.Context, m MsgChanOpenInit) error {
	var b [app.KeyBufLen]byte
	key := AppendChannelKey(b[:0], m.Port, m.Channel)
	if ctx.State.Has(key) {
		return fmt.Errorf("ibc: channel %s/%s exists", m.Port, m.Channel)
	}
	conn, err := k.Connection(ctx, m.ConnectionID)
	if err != nil {
		return err
	}
	if conn.State != StateOpen {
		return fmt.Errorf("%w: connection %s not open", ErrInvalidHandshake, m.ConnectionID)
	}
	setJSON(ctx, key, ChannelEnd{
		State:            StateInit,
		Ordering:         m.Ordering,
		CounterpartyPort: m.CounterpartyPort,
		CounterpartyChan: m.CounterpartyChan,
		ConnectionID:     m.ConnectionID,
		Version:          m.Version,
	})
	return nil
}

func (k *Keeper) chanOpenTry(ctx *app.Context, m MsgChanOpenTry) error {
	conn, err := k.Connection(ctx, m.ConnectionID)
	if err != nil {
		return err
	}
	if conn.State != StateOpen {
		return fmt.Errorf("%w: connection %s not open", ErrInvalidHandshake, m.ConnectionID)
	}
	expected := ChannelEnd{
		State:            StateInit,
		Ordering:         m.Ordering,
		CounterpartyPort: m.Port,
		CounterpartyChan: m.Channel,
		ConnectionID:     conn.CounterpartyConnID,
		Version:          m.Version,
	}
	raw, _ := json.Marshal(expected)
	var b [app.KeyBufLen]byte
	if err := k.verifyMembership(ctx, conn.ClientID, m.ProofHeight,
		AppendChannelKey(b[:0], m.CounterpartyPort, m.CounterpartyChan), raw, m.ProofInit); err != nil {
		return err
	}
	setJSON(ctx, AppendChannelKey(b[:0], m.Port, m.Channel), ChannelEnd{
		State:            StateTryOpen,
		Ordering:         m.Ordering,
		CounterpartyPort: m.CounterpartyPort,
		CounterpartyChan: m.CounterpartyChan,
		ConnectionID:     m.ConnectionID,
		Version:          m.Version,
	})
	return nil
}

// openChannel finishes the channel handshake on one end (ack on the INIT
// end, confirm on the TRYOPEN end) and starts its send counter: the end
// must be in state from, and the counterparty must prove its end in
// state cp.
func (k *Keeper) openChannel(ctx *app.Context, port, channel string, from, cp HandshakeState, proofHeight int64, proof *Proof) error {
	ch, err := k.Channel(ctx, port, channel)
	if err != nil {
		return err
	}
	if ch.State != from {
		return fmt.Errorf("%w: channel %s/%s in state %d", ErrInvalidHandshake, port, channel, ch.State)
	}
	conn, err := k.Connection(ctx, ch.ConnectionID)
	if err != nil {
		return err
	}
	expected := ChannelEnd{
		State:            cp,
		Ordering:         ch.Ordering,
		CounterpartyPort: port,
		CounterpartyChan: channel,
		ConnectionID:     conn.CounterpartyConnID,
		Version:          ch.Version,
	}
	raw, _ := json.Marshal(expected)
	var b [app.KeyBufLen]byte
	if err := k.verifyMembership(ctx, conn.ClientID, proofHeight,
		AppendChannelKey(b[:0], ch.CounterpartyPort, ch.CounterpartyChan), raw, proof); err != nil {
		return err
	}
	ch.State = StateOpen
	setJSON(ctx, AppendChannelKey(b[:0], port, channel), ch)
	ctx.State.Set(AppendNextSequenceSendKey(b[:0], port, channel), []byte("1"))
	return nil
}

// --- packet lifecycle -------------------------------------------------------------

// SendPacket stores a packet commitment and emits the send_packet event
// the relayer watches for. Called by port modules (e.g. transfer).
func (k *Keeper) SendPacket(ctx *app.Context, port, channel string, data []byte, timeoutHeight int64, timeoutTimestamp time.Duration) (Packet, error) {
	ch, err := k.Channel(ctx, port, channel)
	if err != nil {
		return Packet{}, err
	}
	if ch.State != StateOpen {
		return Packet{}, fmt.Errorf("%w: %s/%s", ErrChannelNotOpen, port, channel)
	}
	// Every path that opens a channel stores the counter "1": reading an
	// absent or bad one as 1 would overwrite a live commitment.
	var b [app.KeyBufLen]byte
	seqKey := AppendNextSequenceSendKey(b[:0], port, channel)
	raw, _ := ctx.State.Get(seqKey)
	seq, err := strconv.ParseUint(string(raw), 10, 64)
	if err != nil {
		return Packet{}, fmt.Errorf("ibc: send sequence of %s/%s: %q is not a counter", port, channel, raw)
	}
	ctx.State.Set(seqKey, strconv.AppendUint(nil, seq+1, 10))
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
	ctx.State.Set(AppendPacketCommitmentKey(b[:0], port, channel, seq), p.CommitmentBytes())
	ctx.Emit(abci.Event{Type: "send_packet", Data: p})
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
	receiptKey := AppendPacketReceiptKey(b[:0], p.DestPort, p.DestChannel, p.Sequence)
	if ctx.State.Has(receiptKey) {
		return fmt.Errorf("%w: %s/%s seq %d", ErrRedundantPacket, p.SourcePort, p.SourceChannel, p.Sequence)
	}
	// Verify the source chain committed this packet.
	var key, commitment []byte // proof-only work, skipped without proofs
	if ctx.State.FullProofs() {
		key, commitment = AppendPacketCommitmentKey(pb[:0], p.SourcePort, p.SourceChannel, p.Sequence), p.CommitmentBytes()
	}
	if err := k.verifyMembership(ctx, clientID, m.ProofHeight, key, commitment, m.ProofCommitment); err != nil {
		return err
	}
	ctx.State.Set(receiptKey, []byte{1})

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
// downstream hop acks, errors or times out.
func (k *Keeper) WriteAcknowledgement(ctx *app.Context, p Packet, ack Acknowledgement) error {
	var b [app.KeyBufLen]byte
	key := AppendPacketAckKey(b[:0], p.DestPort, p.DestChannel, p.Sequence)
	if ctx.State.Has(key) {
		return fmt.Errorf("ibc: acknowledgement for %s/%s seq %d already written",
			p.DestPort, p.DestChannel, p.Sequence)
	}
	raw := ack.Bytes()
	ctx.State.Set(key, hashAck(raw))
	ctx.Emit(abci.Event{Type: "write_acknowledgement", Data: AckWrite{Packet: p, Ack: raw}})
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
	commitKey := AppendPacketCommitmentKey(b[:0], p.SourcePort, p.SourceChannel, p.Sequence)
	if !ctx.State.Has(commitKey) {
		// Already acknowledged or timed out: redundant relay.
		return fmt.Errorf("%w: ack for seq %d", ErrRedundantPacket, p.Sequence)
	}
	var key, ackHash []byte // proof-only work, skipped without proofs
	if ctx.State.FullProofs() {
		key, ackHash = AppendPacketAckKey(pb[:0], p.DestPort, p.DestChannel, p.Sequence), hashAck(m.Ack)
	}
	if err := k.verifyMembership(ctx, clientID, m.ProofHeight, key, ackHash, m.ProofAcked); err != nil {
		return err
	}
	ctx.State.Delete(commitKey)

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
	commitKey := AppendPacketCommitmentKey(b[:0], p.SourcePort, p.SourceChannel, p.Sequence)
	if !ctx.State.Has(commitKey) {
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
	if err := k.verifyNonMembership(ctx, clientID, m.ProofHeight,
		AppendPacketReceiptKey(pb[:0], p.DestPort, p.DestChannel, p.Sequence), m.ProofUnreceived); err != nil {
		return err
	}
	ctx.State.Delete(commitKey)

	mod, ok := k.ports[p.SourcePort]
	if !ok {
		return fmt.Errorf("ibc: no module bound to port %s", p.SourcePort)
	}
	return mod.OnTimeoutPacket(ctx, p)
}

// hashAck is the stored acknowledgement commitment.
func hashAck(ack []byte) []byte {
	h := merkle.LeafHash([]byte("ack"), ack)
	return h[:]
}

// HasCommitment reports whether a packet commitment is still stored
// (pending, not yet acknowledged or timed out).
func (k *Keeper) HasCommitment(ctx *app.Context, port, channel string, seq uint64) bool {
	var b [app.KeyBufLen]byte
	return ctx.State.Has(AppendPacketCommitmentKey(b[:0], port, channel, seq))
}

// HasReceipt reports whether a packet was received.
func (k *Keeper) HasReceipt(ctx *app.Context, port, channel string, seq uint64) bool {
	var b [app.KeyBufLen]byte
	return ctx.State.Has(AppendPacketReceiptKey(b[:0], port, channel, seq))
}
