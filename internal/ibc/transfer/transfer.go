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

// Route implements app.Msg.
func (MsgTransfer) Route() string { return PortID }

// MsgType implements app.Msg.
func (MsgTransfer) MsgType() string { return "MsgTransfer" }

// WireSize implements app.Msg.
func (m MsgTransfer) WireSize() int { return simconf.MsgTransferBytes + len(m.Memo) }

// Digest binds the transfer's content into the enclosing tx hash. The
// memo contributes only when present, keeping memo-less digests (and the
// fingerprints pinned on them) unchanged.
func (m MsgTransfer) Digest() []byte {
	// "xfer/<sender>/<receiver>/<amount><denom>/<channel>/<nonce>[/<memo>]":
	// 6 slashes and two numbers of at most 20 digits.
	d := make([]byte, 0, len("xfer")+6+40+len(m.Sender)+len(m.Receiver)+
		len(m.Token.Denom)+len(m.SourceChannel)+len(m.Memo))
	d = append(append(append(d, "xfer/"...), m.Sender...), '/')
	d = append(append(d, m.Receiver...), '/')
	d = append(append(strconv.AppendUint(d, m.Token.Amount, 10), m.Token.Denom...), '/')
	d = append(append(d, m.SourceChannel...), '/')
	d = strconv.AppendUint(d, m.Nonce, 10)
	if m.Memo != "" {
		d = append(append(d, '/'), m.Memo...)
	}
	return d
}

// PacketData is the ICS-20 packet payload.
type PacketData struct {
	Denom    string `json:"denom"`
	Amount   uint64 `json:"amount"`
	Sender   string `json:"sender"`
	Receiver string `json:"receiver"`
	Memo     string `json:"memo,omitempty"`
}

// Bytes serializes the payload: the bytes json.Marshal writes (they are
// hashed into the packet commitment), appended directly.
func (d PacketData) Bytes() []byte {
	b := make([]byte, 0, 72+len(d.Denom)+len(d.Sender)+len(d.Receiver)+len(d.Memo)+len(d.Memo)/8)
	b = ibc.AppendJSONString(append(b, `{"denom":`...), d.Denom)
	b = strconv.AppendUint(append(b, `,"amount":`...), d.Amount, 10)
	b = ibc.AppendJSONString(append(b, `,"sender":`...), d.Sender)
	b = ibc.AppendJSONString(append(b, `,"receiver":`...), d.Receiver)
	if d.Memo != "" {
		b = ibc.AppendJSONString(append(b, `,"memo":`...), d.Memo)
	}
	return append(b, '}')
}

// ParsePacketData deserializes a packet payload. Bytes' own output is
// read directly; any other document is json.Unmarshal's to accept or
// refuse.
func ParsePacketData(raw []byte) (PacketData, error) {
	var d PacketData
	r := ibc.JSONReader{Buf: raw}
	r.Expect(`{"denom":`)
	d.Denom = string(r.Bytes())
	r.Expect(`,"amount":`)
	d.Amount = r.Uint()
	r.Expect(`,"sender":`)
	d.Sender = string(r.Bytes())
	r.Expect(`,"receiver":`)
	d.Receiver = string(r.Bytes())
	if r.Skip(`,"memo":`) {
		d.Memo = string(r.Bytes())
	}
	r.Expect("}")
	if r.Done() {
		return d, nil
	}
	var slow PacketData // not d: the address taken would move d to the heap
	err := json.Unmarshal(raw, &slow)
	return slow, err
}

// Module is the ICS-20 application module for one chain.
type Module struct {
	keeper *ibc.Keeper

	// Counters for analysis.
	sent     uint64
	received uint64
	acked    uint64
	refunded uint64
}

var _ ibc.PortModule = (*Module)(nil)

// New wires the transfer module into an app and its IBC keeper.
func New(a *app.App, k *ibc.Keeper) *Module {
	m := &Module{keeper: k}
	k.BindPort(PortID, m)
	a.RegisterRoute(PortID, m.handleMsg)
	return m
}

// Keeper exposes the IBC keeper the module sends packets through.
func (m *Module) Keeper() *ibc.Keeper { return m.keeper }

// Stats reports (sent, received, acked, refunded) packet counts.
func (m *Module) Stats() (sent, received, acked, refunded uint64) {
	return m.sent, m.received, m.acked, m.refunded
}

// EscrowAccount names the module account holding escrowed tokens for a
// channel.
func EscrowAccount(port, channel string) string {
	return "escrow/" + port + "/" + channel
}

// VoucherPrefix is the denom trace prefix added on the receiving chain.
func VoucherPrefix(port, channel string) string {
	return port + "/" + channel + "/"
}

// handleMsg executes MsgTransfer.
func (m *Module) handleMsg(ctx *app.Context, msg app.Msg) error {
	mt, ok := msg.(MsgTransfer)
	if !ok {
		return fmt.Errorf("transfer: unexpected msg %T", msg)
	}
	_, err := m.SendTransfer(ctx, mt)
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
	data := PacketData{
		Denom:    mt.Token.Denom,
		Amount:   mt.Token.Amount,
		Sender:   mt.Sender,
		Receiver: mt.Receiver,
		Memo:     mt.Memo,
	}.Bytes()
	p, err := m.keeper.SendPacket(ctx, mt.SourcePort, mt.SourceChannel,
		data, mt.TimeoutHeight, mt.TimeoutTimestamp)
	if err != nil {
		return ibc.Packet{}, err
	}
	m.sent++
	return p, nil
}

// ReceiveFunds executes the fund-movement half of packet receipt,
// crediting `receiver` with the locally valid coin: trim-and-unescrow
// when the token is returning to this zone, prefix-and-mint otherwise.
// It reports the credited coin and whether the unescrow path ran (the
// information an unwinding middleware needs to reverse it).
func (m *Module) ReceiveFunds(ctx *app.Context, p ibc.Packet, data PacketData, receiver string) (app.Coin, bool, error) {
	tr := denom.Parse(data.Denom)
	if tr.HasPrefix(p.SourcePort, p.SourceChannel) {
		// Token is returning home: release from this chain's escrow.
		coin := app.Coin{Denom: tr.TrimPrefix().String(), Amount: data.Amount}
		escrow := EscrowAccount(p.DestPort, p.DestChannel)
		if err := ctx.Bank.Send(escrow, receiver, coin); err != nil {
			return app.Coin{}, false, err
		}
		return coin, true, nil
	}
	// Mint a voucher with this channel's trace prefix.
	coin := app.Coin{Denom: tr.AddPrefix(p.DestPort, p.DestChannel).String(), Amount: data.Amount}
	ctx.Bank.Mint(receiver, coin)
	return coin, false, nil
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

// OnRecvPacket implements ibc.PortModule: mint a voucher or unescrow the
// original token for the packet's receiver.
func (m *Module) OnRecvPacket(ctx *app.Context, p ibc.Packet) *ibc.Acknowledgement {
	data, err := ParsePacketData(p.Data)
	if err != nil {
		return &ibc.Acknowledgement{Error: ErrBadPacketData.Error()}
	}
	return m.ReceivePacket(ctx, p, data)
}

// ReceivePacket is OnRecvPacket for a caller that has already decoded
// p.Data: middleware that had to read the memo hands its PacketData on
// instead of having the payload parsed a second time.
func (m *Module) ReceivePacket(ctx *app.Context, p ibc.Packet, data PacketData) *ibc.Acknowledgement {
	if _, _, err := m.ReceiveFunds(ctx, p, data, data.Receiver); err != nil {
		return &ibc.Acknowledgement{Error: err.Error()}
	}
	m.received++
	return &ibc.Acknowledgement{Result: []byte("AQ==")}
}

// OnAcknowledgementPacket implements ibc.PortModule: refund on error ack.
func (m *Module) OnAcknowledgementPacket(ctx *app.Context, p ibc.Packet, ack ibc.Acknowledgement) error {
	if ack.Success() {
		m.acked++
		return nil
	}
	return m.RefundPacket(ctx, p)
}

// OnTimeoutPacket implements ibc.PortModule: undo the escrow/burn, the
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
	data, err := ParsePacketData(p.Data)
	if err != nil {
		return ErrBadPacketData
	}
	coin := app.Coin{Denom: data.Denom, Amount: data.Amount}
	if denom.ReceiverChainIsSource(p.SourcePort, p.SourceChannel, data.Denom) {
		// The burned voucher is re-minted.
		ctx.Bank.Mint(data.Sender, coin)
	} else {
		escrow := EscrowAccount(p.SourcePort, p.SourceChannel)
		if err := ctx.Bank.Send(escrow, data.Sender, coin); err != nil {
			return err
		}
	}
	m.refunded++
	return nil
}
