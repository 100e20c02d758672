// Package transfer implements ICS-20 fungible token transfer: escrow and
// voucher minting with denomination traces, the application the paper's
// workloads exercise (every benchmark transaction carries 100
// MsgTransfer messages).
//
// Tokens sent through different channels receive different trace-prefixed
// denominations and are therefore not fungible with each other — the
// downside the paper notes for scaling throughput with per-relayer
// channels (§IV-A). Escrow/mint/burn decisions follow full ICS-20 trace
// semantics (internal/ibc/denom), so multi-hop vouchers nest and unwind
// correctly instead of being treated as opaque single-hop prefixes.
package transfer

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"ibcbench/internal/app"
	"ibcbench/internal/ibc"
	"ibcbench/internal/ibc/denom"
	"ibcbench/internal/simconf"
)

// PortID is the standard ICS-20 port.
const PortID = "transfer"

// Module errors.
var (
	ErrBadPacketData = errors.New("transfer: malformed packet data")
)

// MsgTransfer requests a cross-chain fungible token transfer (the paper's
// workload message).
type MsgTransfer struct {
	Sender        string
	Receiver      string
	Token         app.Coin
	SourcePort    string
	SourceChannel string
	// TimeoutHeight is the destination height after which the packet can
	// no longer be received (0 = no height timeout).
	TimeoutHeight int64
	// TimeoutTimestamp is the destination block-time deadline.
	TimeoutTimestamp time.Duration
	// Memo is the free-form packet memo; the packet-forward middleware
	// interprets a {"forward":...} payload (see internal/ibc/pfm).
	Memo string
	// Nonce disambiguates otherwise-identical transfers in a batch.
	Nonce uint64
}

// Route implements app.Msg. A MsgTransfer is an app.Msg by pointer only:
// a workload transaction cuts its messages from one array.
func (*MsgTransfer) Route() string { return PortID }

// MsgType implements app.Msg.
func (*MsgTransfer) MsgType() string { return "MsgTransfer" }

// WireSize implements app.Msg.
func (m *MsgTransfer) WireSize() int { return simconf.MsgTransferBytes + len(m.Memo) }

// AppendDigest appends what binds the transfer's content into the
// enclosing tx hash:
// "xfer/<sender>/<receiver>/<amount><denom>/<channel>/<nonce>[/<memo>]".
// The memo contributes only when present, keeping memo-less digests (and
// the fingerprints pinned on them) unchanged.
func (m *MsgTransfer) AppendDigest(dst []byte) []byte {
	dst = append(append(append(dst, "xfer/"...), m.Sender...), '/')
	dst = append(append(dst, m.Receiver...), '/')
	dst = append(append(strconv.AppendUint(dst, m.Token.Amount, 10), m.Token.Denom...), '/')
	dst = append(append(dst, m.SourceChannel...), '/')
	dst = strconv.AppendUint(dst, m.Nonce, 10)
	if m.Memo != "" {
		dst = append(append(dst, '/'), m.Memo...)
	}
	return dst
}

// PacketData is the ICS-20 packet payload as a sender writes it.
type PacketData struct {
	Denom    string `json:"denom"`
	Amount   uint64 `json:"amount"`
	Sender   string `json:"sender"`
	Receiver string `json:"receiver"`
	Memo     string `json:"memo,omitempty"`
}

// AppendBytes appends the serialized payload to dst: the bytes
// json.Marshal writes (they are hashed into the packet commitment).
func (d *PacketData) AppendBytes(dst []byte) []byte {
	dst = ibc.AppendJSONString(append(dst, `{"denom":`...), d.Denom)
	dst = strconv.AppendUint(append(dst, `,"amount":`...), d.Amount, 10)
	dst = ibc.AppendJSONString(append(dst, `,"sender":`...), d.Sender)
	dst = ibc.AppendJSONString(append(dst, `,"receiver":`...), d.Receiver)
	if d.Memo != "" {
		dst = ibc.AppendJSONString(append(dst, `,"memo":`...), d.Memo)
	}
	return append(dst, '}')
}

// PacketView is a packet payload read in place (ReadPacketData): a text
// field that needs no unescaping is a sub-slice of the bytes read. A
// packet's Data is never written after SendPacket, so a view of it stays
// valid, and the transfer path builds its bank keys from these bytes.
type PacketView struct {
	Denom    []byte
	Amount   uint64
	Sender   []byte
	Receiver []byte
	Memo     []byte
}

// ReadPacketData reads a packet payload. AppendBytes' own output is read
// in place: a field without escapes is a sub-slice of raw, and only an
// escaped one is copied, unescaped. Any other document is
// json.Unmarshal's to accept or refuse, and its fields are copies.
func ReadPacketData(raw []byte) (PacketView, error) {
	var v PacketView
	r := ibc.JSONReader{Buf: raw}
	r.Expect(`{"denom":`)
	v.Denom = r.Bytes()
	r.Expect(`,"amount":`)
	v.Amount = r.Uint()
	r.Expect(`,"sender":`)
	v.Sender = r.Bytes()
	r.Expect(`,"receiver":`)
	v.Receiver = r.Bytes()
	if r.Skip(`,"memo":`) {
		v.Memo = r.Bytes()
	}
	r.Expect("}")
	if r.Done() {
		return v, nil
	}
	var d PacketData
	if err := json.Unmarshal(raw, &d); err != nil {
		return PacketView{}, err
	}
	return PacketView{Denom: []byte(d.Denom), Amount: d.Amount, Sender: []byte(d.Sender), Receiver: []byte(d.Receiver), Memo: []byte(d.Memo)}, nil
}

// Module is the ICS-20 application module for one chain. It is not a
// port module of its own: the packet-forward middleware (internal/ibc/pfm)
// is bound to the transfer port and hands it every packet it does not
// forward.
type Module struct {
	keeper *ibc.Keeper
	// data is the chunk packet payloads are written into: the keeper and
	// the event that carries a packet keep its payload by reference, and
	// nothing writes it again.
	data app.Chunk[byte]

	// Counters for analysis.
	sent     uint64
	received uint64
	acked    uint64
	refunded uint64
}

// New wires the transfer module into an app, routing MsgTransfer to it,
// over its IBC keeper. The port is bound by the middleware that wraps it.
func New(a *app.App, k *ibc.Keeper) *Module {
	m := &Module{keeper: k}
	a.RegisterRoute(PortID, m.handleMsg)
	return m
}

// Stats reports (sent, received, acked, refunded) packet counts.
func (m *Module) Stats() (sent, received, acked, refunded uint64) {
	return m.sent, m.received, m.acked, m.refunded
}

// EscrowAccount names the module account holding escrowed tokens for a
// channel.
func EscrowAccount(port, channel string) string {
	var b [app.KeyBufLen]byte
	return string(appendEscrowAccount(b[:0], port, channel))
}

// appendEscrowAccount appends EscrowAccount(port, channel) to dst.
func appendEscrowAccount(dst []byte, port, channel string) []byte {
	return append(append(append(append(dst, "escrow/"...), port...), '/'), channel...)
}

// CutEscrowBalanceKey splits the bank key of an EscrowAccount's balance
// in dn into its parts; ok is false for any other key.
func CutEscrowBalanceKey(k string) (port, channel, dn string, ok bool) {
	rest, ok := strings.CutPrefix(k, app.BalancePrefix+"escrow/")
	port, rest, _ = strings.Cut(rest, "/")
	channel, dn, found := strings.Cut(rest, "/")
	return port, channel, dn, ok && found
}

// handleMsg executes MsgTransfer.
func (m *Module) handleMsg(ctx *app.Context, msg app.Msg) error {
	mt, ok := msg.(*MsgTransfer)
	if !ok {
		return fmt.Errorf("transfer: unexpected msg %T", msg)
	}
	_, err := m.SendTransfer(ctx, *mt)
	return err
}

// SendTransfer escrows or burns the token per trace rules and emits the
// packet. Exported so middleware (packet forwarding) can originate the
// next hop of a multi-hop route inside the receiving transaction.
func (m *Module) SendTransfer(ctx *app.Context, mt MsgTransfer) (ibc.Packet, error) {
	if denom.SenderChainIsSource(mt.SourcePort, mt.SourceChannel, mt.Token.Denom) {
		// This chain is the token's source zone relative to the outgoing
		// channel: lock in the channel escrow.
		escrow := EscrowAccount(mt.SourcePort, mt.SourceChannel)
		if err := ctx.Bank.Send(mt.Sender, escrow, mt.Token); err != nil {
			return ibc.Packet{}, err
		}
	} else {
		// Voucher returning toward its origin: burn here, unescrow there.
		if err := ctx.Bank.Burn(mt.Sender, mt.Token); err != nil {
			return ibc.Packet{}, err
		}
	}
	d := PacketData{
		Denom:    mt.Token.Denom,
		Amount:   mt.Token.Amount,
		Sender:   mt.Sender,
		Receiver: mt.Receiver,
		Memo:     mt.Memo,
	}
	// Encoded on the stack, then copied into a slot of its exact size.
	var buf [512]byte
	enc := d.AppendBytes(buf[:0])
	p, err := m.keeper.SendPacket(ctx, mt.SourcePort, mt.SourceChannel,
		append(m.data.Slot(len(enc)), enc...), mt.TimeoutHeight, mt.TimeoutTimestamp)
	if err != nil {
		return ibc.Packet{}, err
	}
	m.sent++
	return p, nil
}

// ReceiveFunds executes the fund-movement half of packet receipt,
// crediting receiver with the locally valid coin: trim-and-unescrow when
// the token is returning to this zone, prefix-and-mint otherwise. It
// returns the denom credited, a sub-slice of data.Denom or a voucher's
// name appended to dst (see ReceivedDenom), and whether the unescrow path
// ran: what an unwinding middleware needs to reverse it.
func (m *Module) ReceiveFunds(ctx *app.Context, p ibc.Packet, data PacketView, receiver, dst []byte) ([]byte, bool, error) {
	d, home := ReceivedDenom(dst, p, data.Denom)
	if home {
		// Token is returning home: release from this chain's escrow.
		var b [app.KeyBufLen]byte
		if err := ctx.Bank.SendBytes(appendEscrowAccount(b[:0], p.DestPort, p.DestChannel), receiver, d, data.Amount); err != nil {
			return nil, false, err
		}
		return d, true, nil
	}
	ctx.Bank.MintBytes(receiver, d, data.Amount)
	return d, false, nil
}

// ReceivedDenom is the denom a packet of p's route carrying packetDenom
// credits on its destination, and whether the token is returning home
// there: then its trace loses p's source hop and the escrow releases
// it, a sub-slice of packetDenom; otherwise it gains p's destination hop
// as a minted voucher, "port/channel/packetDenom" appended to dst (the
// pure function of the channel and the denom ICS-20 prefixes). Only p's
// ports and channels are read, and into a dst with room nothing is
// allocated.
func ReceivedDenom(dst []byte, p ibc.Packet, packetDenom []byte) ([]byte, bool) {
	if rest, ok := denom.CutHop(packetDenom, p.SourcePort, p.SourceChannel); ok {
		return rest, true
	}
	dst = append(append(append(append(dst, p.DestPort...), '/'), p.DestChannel...), '/')
	return append(dst, packetDenom...), false
}

// UndoReceive reverses a ReceiveFunds: re-escrow an unescrowed coin or
// burn a minted voucher held by `holder`. Used by forwarding middleware
// when a downstream hop fails after the local receive leg ran.
func (m *Module) UndoReceive(ctx *app.Context, p ibc.Packet, coin app.Coin, unescrowed bool, holder string) error {
	if unescrowed {
		return ctx.Bank.Send(holder, EscrowAccount(p.DestPort, p.DestChannel), coin)
	}
	return ctx.Bank.Burn(holder, coin)
}

// ReceivePacket receives a packet whose payload the caller has read in
// place (the middleware bound to the port reads it for the memo): mint a
// voucher or unescrow the original token for the packet's receiver.
func (m *Module) ReceivePacket(ctx *app.Context, p ibc.Packet, data PacketView) *ibc.Acknowledgement {
	var buf [app.KeyBufLen]byte
	if _, _, err := m.ReceiveFunds(ctx, p, data, data.Receiver, buf[:0]); err != nil {
		return &ibc.Acknowledgement{Error: err.Error()}
	}
	m.received++
	return ibc.SuccessAck
}

// OnAcknowledgementPacket refunds a packet on an error ack; the
// middleware bound to the port hands it every ack of a packet it did not
// forward.
func (m *Module) OnAcknowledgementPacket(ctx *app.Context, p ibc.Packet, ack ibc.Acknowledgement) error {
	if ack.Success() {
		m.acked++
		return nil
	}
	return m.RefundPacket(ctx, p)
}

// OnTimeoutPacket undoes the escrow/burn of a timed-out packet, the
// behaviour of the paper's Fig. 3 OnPacketTimeout step ("unlocking assets
// that were previously held locked while the transfer request was
// pending").
func (m *Module) OnTimeoutPacket(ctx *app.Context, p ibc.Packet) error {
	return m.RefundPacket(ctx, p)
}

// RefundPacket reverses the send leg of a failed packet: re-mint a
// burned voucher or release the escrow back to the sender. Exported so
// forwarding middleware can unwind its own hop sends.
func (m *Module) RefundPacket(ctx *app.Context, p ibc.Packet) error {
	data, err := ReadPacketData(p.Data)
	if err != nil {
		return ErrBadPacketData
	}
	if denom.ReceiverChainIsSource(p.SourcePort, p.SourceChannel, data.Denom) {
		// The burned voucher is re-minted.
		ctx.Bank.MintBytes(data.Sender, data.Denom, data.Amount)
	} else {
		var b [app.KeyBufLen]byte
		escrow := appendEscrowAccount(b[:0], p.SourcePort, p.SourceChannel)
		if err := ctx.Bank.SendBytes(escrow, data.Sender, data.Denom, data.Amount); err != nil {
			return err
		}
	}
	m.refunded++
	return nil
}
