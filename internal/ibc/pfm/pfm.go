// Package pfm implements packet-forward middleware (PFM): an ICS-26
// middleware wrapped around the ICS-20 transfer module that turns a
// {"forward":...} packet memo into an atomic multi-hop route. On
// OnRecvPacket it executes the local receive leg to a module-owned
// forwarding account per denom-trace rules, emits the next hop's
// send_packet in the same block, and holds the origin's acknowledgement
// open (async ack) until the downstream hop settles. Acks and timeouts
// propagate backward: a failed hop refunds the forwarding account,
// reverses the local receive (re-escrow or burn), and writes an error
// acknowledgement for the original packet so every upstream chain
// unwinds in turn — the origin sender ends up refunded with all
// intermediate escrows and supplies restored.
//
// This is the native alternative to chaining user-driven sequential
// transfers (topo's default route mode): one user transaction per route,
// with relayer pipelining across hops instead of a full settle-then-
// resubmit cycle per leg.
package pfm

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"ibcbench/internal/app"
	"ibcbench/internal/ibc"
	"ibcbench/internal/ibc/transfer"
)

// ModuleAccount holds in-flight forwarded funds on the intermediate
// chain between the receive leg and the next hop's settlement.
const ModuleAccount = "pfm-forwarder"

// DefaultTimeoutBlocks is the next-hop timeout margin, in destination
// blocks past the forwarding chain's light-client view of the
// destination.
const DefaultTimeoutBlocks = 120

// Middleware errors.
var (
	ErrBadForwardMemo = errors.New("pfm: malformed forward memo")
)

// ForwardMetadata is the memo payload directing one forward hop.
// Nested Next entries express routes of arbitrary depth.
type ForwardMetadata struct {
	// Receiver is the recipient on the next chain (the final recipient on
	// the last hop; intermediate hops with their own Next are overridden
	// by the middleware's forwarding account there).
	Receiver string `json:"receiver"`
	// Port/Channel address the outgoing channel on the forwarding chain.
	Port    string `json:"port"`
	Channel string `json:"channel"`
	// TimeoutBlocks overrides DefaultTimeoutBlocks for this hop (0 =
	// default).
	TimeoutBlocks int64 `json:"timeout_blocks,omitempty"`
	// Next carries the remaining hops.
	Next *ForwardMetadata `json:"next,omitempty"`
}

// memoWrapper is the on-the-wire memo shape: {"forward": {...}}.
type memoWrapper struct {
	Forward *ForwardMetadata `json:"forward"`
}

// Memo serializes forward metadata into a packet memo string.
func Memo(f *ForwardMetadata) string {
	if f == nil {
		return ""
	}
	raw, err := json.Marshal(memoWrapper{Forward: f})
	if err != nil {
		return ""
	}
	return string(raw)
}

// ParseMemo extracts forward metadata from a memo, read in place from a
// packet's data ("" or non-forward memos return ok=false; a memo with
// forward intent that fails to decode returns an error so the packet can
// be refused rather than silently delivered to the intermediate chain).
func ParseMemo(memo []byte) (*ForwardMetadata, bool, error) {
	if len(memo) == 0 {
		return nil, false, nil
	}
	var w memoWrapper
	if err := json.Unmarshal(memo, &w); err != nil {
		if bytes.Contains(memo, []byte(`"forward"`)) {
			// Undecodable but clearly meant to forward: refuse it.
			return nil, false, fmt.Errorf("%w: %q", ErrBadForwardMemo, memo)
		}
		// Plain free-form memos pass through untouched.
		return nil, false, nil
	}
	if w.Forward == nil {
		return nil, false, nil
	}
	f := w.Forward
	if f.Port == "" || f.Channel == "" || f.Receiver == "" {
		return nil, false, fmt.Errorf("%w: %q", ErrBadForwardMemo, memo)
	}
	return f, true, nil
}

// inFlight is the state-backed record of one forwarded packet, keyed by
// the OUTGOING hop's (port, channel, sequence). It carries everything the
// backward propagation needs: the original packet whose ack is held
// open, and how the local receive leg moved funds.
type inFlight struct {
	Original ibc.Packet `json:"original"`
	// Coin was credited to ModuleAccount by the receive leg.
	Coin app.Coin `json:"coin"`
	// Unescrowed records whether the receive leg released escrow (true)
	// or minted a voucher (false).
	Unescrowed bool `json:"unescrowed"`
}

// inFlightKind is the path before the outgoing hop's channel path in an
// in-flight record's key.
const inFlightKind = "pfm/inflight"

// AppendInFlightKey appends the key of the in-flight record of the hop
// sent as sequence seq on port/channel.
func AppendInFlightKey(dst []byte, port, channel string, seq uint64) []byte {
	return ibc.AppendPacketKey(dst, inFlightKind, port, channel, seq)
}

// CutInFlightKey splits an in-flight record's key into the outgoing
// hop's port, channel and sequence; ok is false for any other key.
func CutInFlightKey(k string) (port, channel string, seq uint64, ok bool) {
	rest, ok := strings.CutPrefix(k, inFlightKind+"/ports/")
	if !ok {
		return "", "", 0, false
	}
	port, rest, ok = strings.Cut(rest, "/channels/")
	channel, num, hasSeq := strings.Cut(rest, "/sequences/")
	if !ok || !hasSeq {
		return "", "", 0, false
	}
	seq, err := strconv.ParseUint(num, 10, 64)
	return port, channel, seq, err == nil
}

// Stats counts middleware outcomes.
type Stats struct {
	// Forwarded counts packets sent onward on receive.
	Forwarded uint64
	// Completed counts forwarded packets whose downstream hop acked
	// successfully.
	Completed uint64
	// Unwound counts forwarded packets refunded after a downstream error
	// ack or timeout.
	Unwound uint64
}

// hopRef identifies a packet on one side of this chain.
type hopRef struct {
	channel string
	seq     uint64
}

// Middleware wraps the transfer module on the ICS-20 port.
type Middleware struct {
	keeper *ibc.Keeper
	inner  *transfer.Module

	// TimeoutBlocks is the default next-hop timeout margin.
	TimeoutBlocks int64

	stats Stats

	// hops maps an inbound packet (dest channel, sequence) to the
	// outbound hop it spawned — reporting metadata for per-hop latency
	// attribution, not consensus state.
	hops map[hopRef]hopRef
}

var _ ibc.PortModule = (*Middleware)(nil)

// New stacks the middleware over the transfer module, rebinding the
// ICS-20 port so all packet callbacks flow through it first.
func New(k *ibc.Keeper, inner *transfer.Module) *Middleware {
	mw := &Middleware{
		keeper:        k,
		inner:         inner,
		TimeoutBlocks: DefaultTimeoutBlocks,
		hops:          make(map[hopRef]hopRef),
	}
	k.BindPort(transfer.PortID, mw)
	return mw
}

// Stats reports middleware outcome counters.
func (mw *Middleware) Stats() Stats { return mw.stats }

// NextHop resolves the outbound (channel, sequence) an inbound packet
// (identified by its destination channel and sequence on this chain) was
// forwarded on. Reporting only.
func (mw *Middleware) NextHop(destChannel string, seq uint64) (string, uint64, bool) {
	out, ok := mw.hops[hopRef{destChannel, seq}]
	return out.channel, out.seq, ok
}

// OnRecvPacket implements ibc.PortModule. The payload is read in place;
// one that does not parse is refused here, for every packet of the port.
// Packets without a forward memo delegate straight to the transfer
// module; forward packets execute the local receive to the forwarding
// account, emit the next hop and answer asynchronously.
func (mw *Middleware) OnRecvPacket(ctx *app.Context, p ibc.Packet) *ibc.Acknowledgement {
	data, err := transfer.ReadPacketData(p.Data)
	if err != nil {
		return &ibc.Acknowledgement{Error: transfer.ErrBadPacketData.Error()}
	}
	fwd, ok, err := ParseMemo(data.Memo)
	if err != nil {
		return &ibc.Acknowledgement{Error: err.Error()}
	}
	if !ok {
		return mw.inner.ReceivePacket(ctx, p, data)
	}

	// Validate the outgoing channel before moving any funds: an error ack
	// still commits the transaction, so every refusal must happen while
	// the bank state is untouched (a half-done receive leg would strand
	// the funds in the hop escrow with the origin refunded).
	ch, err := mw.keeper.Channel(ctx, fwd.Port, fwd.Channel)
	if err != nil {
		return &ibc.Acknowledgement{Error: fmt.Sprintf("pfm: forward channel: %v", err)}
	}
	if ch.State != ibc.StateOpen {
		return &ibc.Acknowledgement{Error: fmt.Sprintf("pfm: forward channel %s/%s not open", fwd.Port, fwd.Channel)}
	}
	// Resolve the client height the hop timeout is anchored to.
	clientHeight, err := mw.keeper.LatestClientHeight(ctx, fwd.Port, fwd.Channel)
	if err != nil {
		return &ibc.Acknowledgement{Error: fmt.Sprintf("pfm: forward client: %v", err)}
	}

	var buf [app.KeyBufLen]byte
	credited, unescrowed, err := mw.inner.ReceiveFunds(ctx, p, data, []byte(ModuleAccount), buf[:0])
	if err != nil {
		return &ibc.Acknowledgement{Error: err.Error()}
	}
	// The coin outlives the call, in the next hop's message and the
	// in-flight record, so its denom is a string of its own.
	coin := app.Coin{Denom: string(credited), Amount: data.Amount}

	timeoutBlocks := fwd.TimeoutBlocks
	if timeoutBlocks <= 0 {
		timeoutBlocks = mw.TimeoutBlocks
	}
	next, err := mw.inner.SendTransfer(ctx, transfer.MsgTransfer{
		Sender:        ModuleAccount,
		Receiver:      fwd.Receiver,
		Token:         coin,
		SourcePort:    fwd.Port,
		SourceChannel: fwd.Channel,
		TimeoutHeight: clientHeight + timeoutBlocks,
		Memo:          Memo(fwd.Next),
		Nonce:         p.Sequence,
	})
	if err != nil {
		// Could not emit the hop: put the receive leg back and refuse the
		// packet so the origin refunds immediately.
		if uerr := mw.inner.UndoReceive(ctx, p, coin, unescrowed, ModuleAccount); uerr != nil {
			return &ibc.Acknowledgement{Error: fmt.Sprintf("pfm: forward failed (%v) and undo failed (%v)", err, uerr)}
		}
		return &ibc.Acknowledgement{Error: fmt.Sprintf("pfm: forward failed: %v", err)}
	}

	rec := inFlight{Original: p, Coin: coin, Unescrowed: unescrowed}
	raw, _ := json.Marshal(rec)
	var b [app.KeyBufLen]byte
	ctx.State.Set(AppendInFlightKey(b[:0], fwd.Port, fwd.Channel, next.Sequence), raw)
	mw.hops[hopRef{p.DestChannel, p.Sequence}] = hopRef{next.SourceChannel, next.Sequence}
	mw.stats.Forwarded++
	// Hold the origin's ack open until the next hop settles.
	return nil
}

// takeInFlight pops the forwarding record of an outgoing packet, if any.
func (mw *Middleware) takeInFlight(ctx *app.Context, p ibc.Packet) (inFlight, bool) {
	var b [app.KeyBufLen]byte
	key := AppendInFlightKey(b[:0], p.SourcePort, p.SourceChannel, p.Sequence)
	raw, ok := ctx.State.Get(key)
	if !ok {
		return inFlight{}, false
	}
	var rec inFlight
	if err := json.Unmarshal(raw, &rec); err != nil {
		return inFlight{}, false
	}
	ctx.State.Delete(key)
	return rec, true
}

// OnAcknowledgementPacket implements ibc.PortModule: forwarded hops
// propagate the result backward; everything else delegates.
func (mw *Middleware) OnAcknowledgementPacket(ctx *app.Context, p ibc.Packet, ack ibc.Acknowledgement) error {
	rec, forwarded := mw.takeInFlight(ctx, p)
	if !forwarded {
		return mw.inner.OnAcknowledgementPacket(ctx, p, ack)
	}
	if ack.Success() {
		mw.stats.Completed++
		// The hop settled: release the origin's held ack as success.
		return mw.keeper.WriteAcknowledgement(ctx, rec.Original, *ibc.SuccessAck)
	}
	return mw.unwind(ctx, p, rec, "pfm: forward rejected: "+ack.Error)
}

// OnTimeoutPacket implements ibc.PortModule: a timed-out forwarded hop
// unwinds; everything else delegates.
func (mw *Middleware) OnTimeoutPacket(ctx *app.Context, p ibc.Packet) error {
	rec, forwarded := mw.takeInFlight(ctx, p)
	if !forwarded {
		return mw.inner.OnTimeoutPacket(ctx, p)
	}
	return mw.unwind(ctx, p, rec, "pfm: forward timeout")
}

// unwind reverses a failed forwarded hop: refund the hop send to the
// forwarding account, reverse the original receive leg, and write an
// error acknowledgement for the original packet so the upstream chain
// (possibly another PFM instance) continues the unwind.
func (mw *Middleware) unwind(ctx *app.Context, hop ibc.Packet, rec inFlight, reason string) error {
	if err := mw.inner.RefundPacket(ctx, hop); err != nil {
		return fmt.Errorf("pfm: unwind refund: %w", err)
	}
	if err := mw.inner.UndoReceive(ctx, rec.Original, rec.Coin, rec.Unescrowed, ModuleAccount); err != nil {
		return fmt.Errorf("pfm: unwind receive reversal: %w", err)
	}
	mw.stats.Unwound++
	return mw.keeper.WriteAcknowledgement(ctx, rec.Original, ibc.Acknowledgement{Error: reason})
}
