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
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math"
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

// Memo serializes forward metadata into a packet memo string: the bytes
// json.Marshal writes for its {"forward": ...} wrapper.
func Memo(f *ForwardMetadata) string {
	if f == nil {
		return ""
	}
	var buf [256]byte
	return string(append(appendForward(append(buf[:0], `{"forward":`...), f), '}'))
}

// appendForward appends the bytes json.Marshal writes for f.
func appendForward(dst []byte, f *ForwardMetadata) []byte {
	dst = ibc.AppendJSONString(append(dst, `{"receiver":`...), f.Receiver)
	dst = ibc.AppendJSONString(append(dst, `,"port":`...), f.Port)
	dst = ibc.AppendJSONString(append(dst, `,"channel":`...), f.Channel)
	if f.TimeoutBlocks != 0 {
		dst = strconv.AppendInt(append(dst, `,"timeout_blocks":`...), f.TimeoutBlocks, 10)
	}
	if f.Next != nil {
		dst = appendForward(append(dst, `,"next":`...), f.Next)
	}
	return append(dst, '}')
}

// ParseMemo extracts forward metadata from a memo, read in place from a
// packet's data ("" or non-forward memos return ok=false; a memo with
// forward intent that fails to decode returns an error so the packet can
// be refused rather than silently delivered to the intermediate chain).
// What Memo writes is read directly; any other memo goes to
// encoding/json (decodeMemo), which decides what it holds.
func ParseMemo(memo []byte) (*ForwardMetadata, bool, error) {
	if len(memo) == 0 {
		return nil, false, nil
	}
	f, read := readMemo(memo)
	if !read {
		return decodeMemo(memo)
	}
	return checkForward(f, memo)
}

// decodeMemo is ParseMemo through encoding/json.
func decodeMemo(memo []byte) (*ForwardMetadata, bool, error) {
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
	return checkForward(w.Forward, memo)
}

// checkForward accepts a decoded forward hop that names a port, a
// channel and a receiver.
func checkForward(f *ForwardMetadata, memo []byte) (*ForwardMetadata, bool, error) {
	if f.Port == "" || f.Channel == "" || f.Receiver == "" {
		return nil, false, fmt.Errorf("%w: %q", ErrBadForwardMemo, memo)
	}
	return f, true, nil
}

// maxMemoHops bounds the hops readMemo reads; a deeper memo goes to
// encoding/json, whose own nesting limit then applies.
const maxMemoHops = 64

// readMemo reads a memo laid out as Memo writes it, its strings cut
// from one copy of memo; read is false for any other memo.
func readMemo(memo []byte) (f *ForwardMetadata, read bool) {
	const open = `{"forward":`
	if !bytes.HasPrefix(memo, []byte(open)) {
		return nil, false
	}
	r := ibc.JSONReader{Buf: memo}
	r.Expect(open)
	f = readForward(&r, string(memo), maxMemoHops)
	r.Expect("}")
	return f, r.Done()
}

// readForward reads one hop and, up to hops deep, the hops after it.
func readForward(r *ibc.JSONReader, src string, hops int) *ForwardMetadata {
	f := new(ForwardMetadata)
	r.Expect(`{"receiver":`)
	f.Receiver = r.String(src)
	r.Expect(`,"port":`)
	f.Port = r.String(src)
	r.Expect(`,"channel":`)
	f.Channel = r.String(src)
	if r.Skip(`,"timeout_blocks":`) {
		n := r.Uint()
		if n > math.MaxInt64 {
			r.Fail()
		}
		f.TimeoutBlocks = int64(n)
	}
	if r.Skip(`,"next":`) {
		if hops == 1 {
			r.Fail()
			return f
		}
		f.Next = readForward(r, src, hops-1)
	}
	r.Expect("}")
	return f
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

// appendInFlight appends the bytes json.Marshal writes for rec, the
// record's stored value.
func appendInFlight(dst []byte, rec *inFlight) []byte {
	p := &rec.Original
	dst = strconv.AppendUint(append(dst, `{"original":{"sequence":`...), p.Sequence, 10)
	dst = ibc.AppendJSONString(append(dst, `,"source_port":`...), p.SourcePort)
	dst = ibc.AppendJSONString(append(dst, `,"source_channel":`...), p.SourceChannel)
	dst = ibc.AppendJSONString(append(dst, `,"dest_port":`...), p.DestPort)
	dst = ibc.AppendJSONString(append(dst, `,"dest_channel":`...), p.DestChannel)
	dst = append(dst, `,"data":`...)
	if p.Data == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(base64.StdEncoding.AppendEncode(append(dst, '"'), p.Data), '"')
	}
	if p.TimeoutHeight != 0 {
		dst = strconv.AppendInt(append(dst, `,"timeout_height":`...), p.TimeoutHeight, 10)
	}
	if p.TimeoutTimestamp != 0 {
		dst = strconv.AppendInt(append(dst, `,"timeout_timestamp":`...), int64(p.TimeoutTimestamp), 10)
	}
	dst = ibc.AppendJSONString(append(dst, `},"coin":{"Denom":`...), rec.Coin.Denom)
	dst = strconv.AppendUint(append(dst, `,"Amount":`...), rec.Coin.Amount, 10)
	dst = strconv.AppendBool(append(dst, `},"unescrowed":`...), rec.Unescrowed)
	return append(dst, '}')
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

	// recs and vals are the chunks in-flight records and their stored
	// bytes are cut from; the store keeps both by reference, and nothing
	// writes them again.
	recs app.Chunk[inFlight]
	vals app.Chunk[byte]

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

	var b [app.KeyBufLen]byte
	mw.setInFlight(ctx, AppendInFlightKey(b[:0], fwd.Port, fwd.Channel, next.Sequence), inFlight{Original: p, Coin: coin, Unescrowed: unescrowed})
	mw.hops[hopRef{p.DestChannel, p.Sequence}] = hopRef{next.SourceChannel, next.Sequence}
	mw.stats.Forwarded++
	// Hold the origin's ack open until the next hop settles.
	return nil
}

// setInFlight stores rec under key typed, beside the bytes json.Marshal
// writes for it, which the app hash covers (app.State.SetObject).
func (mw *Middleware) setInFlight(ctx *app.Context, key []byte, rec inFlight) {
	obj := mw.recs.New()
	*obj = rec
	var buf [1024]byte // room for a packet of about 600 data bytes
	raw := appendInFlight(buf[:0], obj)
	ctx.State.SetObject(key, append(mw.vals.Slot(len(raw)), raw...), obj)
}

// takeInFlight pops the forwarding record of an outgoing packet, if any:
// a key stored without its typed record is read as absent.
func (mw *Middleware) takeInFlight(ctx *app.Context, p ibc.Packet) (inFlight, bool) {
	var b [app.KeyBufLen]byte
	key := AppendInFlightKey(b[:0], p.SourcePort, p.SourceChannel, p.Sequence)
	rec, ok := ctx.State.Object(key).(*inFlight)
	if !ok {
		return inFlight{}, false
	}
	ctx.State.Delete(key)
	return *rec, true
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
