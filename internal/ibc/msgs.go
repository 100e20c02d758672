package ibc

import (
	"strconv"
	"time"

	"ibcbench/internal/merkle"
	"ibcbench/internal/simconf"
	"ibcbench/internal/tendermint/types"
)

// RouteIBC is the app router key for core IBC messages.
const RouteIBC = "ibc"

// HeaderBundle is a counterparty header plus the commit that finalized
// it, submitted in MsgUpdateClient and verified against the client's
// pinned validator set.
type HeaderBundle struct {
	Header types.Header
	Commit *types.Commit
}

// MsgUpdateClient submits a new counterparty header.
type MsgUpdateClient struct {
	ClientID string
	Bundle   HeaderBundle
}

// MsgRecvPacket delivers a packet to the destination chain with proof of
// the source chain's packet commitment.
//
// The proof of a packet message is nil in performance mode (full proofs
// disabled), where verification is skipped: the virtual-time cost of
// proof handling is still modeled by the relayer's data-pull and build
// steps. Relayers share one proof of a key, so no one writes to it.
type MsgRecvPacket struct {
	Packet          Packet
	ProofCommitment *merkle.RecordProof
	ProofHeight     int64
	Relayer         string
}

// MsgAcknowledgement returns an acknowledgement to the source chain with
// proof that the destination wrote it.
type MsgAcknowledgement struct {
	Packet      Packet
	Ack         []byte
	ProofAcked  *merkle.RecordProof
	ProofHeight int64
	Relayer     string
}

// MsgTimeout aborts a packet on the source chain with proof that the
// destination never received it before the timeout.
type MsgTimeout struct {
	Packet           Packet
	ProofUnreceived  *merkle.RecordProof
	ProofHeight      int64
	NextSequenceRecv uint64
	Relayer          string
}

// appendPacketDigest appends "<kind><port>/<channel>/<sequence>": what
// a packet message contributes to its tx hash.
func appendPacketDigest(dst []byte, kind string, p *Packet) []byte {
	dst = append(append(append(dst, kind...), p.SourcePort...), '/')
	dst = append(append(dst, p.SourceChannel...), '/')
	return strconv.AppendUint(dst, p.Sequence, 10)
}

// Route/MsgType/WireSize/AppendDigest implementations. Every IBC message
// is an app.Msg by pointer only: a relayer cuts a batch's messages from
// one array, and its client updates from a chunk, and hands out pointers
// into them, which box without an allocation.

func (*MsgUpdateClient) Route() string   { return RouteIBC }
func (*MsgUpdateClient) MsgType() string { return "MsgUpdateClient" }
func (*MsgUpdateClient) WireSize() int   { return 1200 }
func (m *MsgUpdateClient) AppendDigest(dst []byte) []byte {
	dst = append(append(append(dst, "update/"...), m.ClientID...), '/')
	return strconv.AppendInt(dst, m.Bundle.Header.Height, 10)
}

func (*MsgRecvPacket) Route() string   { return RouteIBC }
func (*MsgRecvPacket) MsgType() string { return "MsgRecvPacket" }
func (*MsgRecvPacket) WireSize() int   { return simconf.MsgRecvPacketBytes }
func (m *MsgRecvPacket) AppendDigest(dst []byte) []byte {
	return appendPacketDigest(dst, "recv/", &m.Packet)
}

func (*MsgAcknowledgement) Route() string   { return RouteIBC }
func (*MsgAcknowledgement) MsgType() string { return "MsgAcknowledgement" }
func (*MsgAcknowledgement) WireSize() int   { return simconf.MsgAckBytes }
func (m *MsgAcknowledgement) AppendDigest(dst []byte) []byte {
	return appendPacketDigest(dst, "ack/", &m.Packet)
}

func (*MsgTimeout) Route() string   { return RouteIBC }
func (*MsgTimeout) MsgType() string { return "MsgTimeout" }
func (*MsgTimeout) WireSize() int   { return simconf.MsgAckBytes }
func (m *MsgTimeout) AppendDigest(dst []byte) []byte {
	return appendPacketDigest(dst, "timeout/", &m.Packet)
}

// timeoutElapsed reports whether a packet can no longer be received at
// the given destination height/time.
func timeoutElapsed(p *Packet, height int64, now time.Duration) bool {
	if p.TimeoutHeight > 0 && height >= p.TimeoutHeight {
		return true
	}
	if p.TimeoutTimestamp > 0 && now >= p.TimeoutTimestamp {
		return true
	}
	return false
}
