package ibc

import (
	"strconv"
	"time"

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

// MsgCreateClient initializes a light client for a counterparty chain.
type MsgCreateClient struct {
	ClientID string
	State    ClientState
	// InitialConsensus seeds the first consensus state.
	InitialHeight    int64
	InitialConsensus ConsensusState
}

// MsgUpdateClient submits a new counterparty header.
type MsgUpdateClient struct {
	ClientID string
	Bundle   HeaderBundle
}

// MsgConnOpenInit starts the connection handshake (chain A).
type MsgConnOpenInit struct {
	ConnID               string
	ClientID             string
	CounterpartyConnID   string
	CounterpartyClientID string
}

// MsgConnOpenTry answers on chain B with proof of A's INIT state.
type MsgConnOpenTry struct {
	ConnID               string
	ClientID             string
	CounterpartyConnID   string
	CounterpartyClientID string
	ProofInit            *Proof
	ProofHeight          int64
}

// MsgConnOpenAck confirms on chain A with proof of B's TRYOPEN state.
type MsgConnOpenAck struct {
	ConnID      string
	ProofTry    *Proof
	ProofHeight int64
}

// MsgConnOpenConfirm finalizes on chain B with proof of A's OPEN state.
type MsgConnOpenConfirm struct {
	ConnID      string
	ProofAck    *Proof
	ProofHeight int64
}

// MsgChanOpenInit starts the channel handshake (chain A).
type MsgChanOpenInit struct {
	Port             string
	Channel          string
	ConnectionID     string
	CounterpartyPort string
	CounterpartyChan string
	Ordering         Order
	Version          string
}

// MsgChanOpenTry answers on chain B.
type MsgChanOpenTry struct {
	Port             string
	Channel          string
	ConnectionID     string
	CounterpartyPort string
	CounterpartyChan string
	Ordering         Order
	Version          string
	ProofInit        *Proof
	ProofHeight      int64
}

// MsgChanOpenAck confirms on chain A.
type MsgChanOpenAck struct {
	Port        string
	Channel     string
	ProofTry    *Proof
	ProofHeight int64
}

// MsgChanOpenConfirm finalizes on chain B.
type MsgChanOpenConfirm struct {
	Port        string
	Channel     string
	ProofAck    *Proof
	ProofHeight int64
}

// MsgRecvPacket delivers a packet to the destination chain with proof of
// the source chain's packet commitment.
type MsgRecvPacket struct {
	Packet          Packet
	ProofCommitment *Proof
	ProofHeight     int64
	Relayer         string
}

// MsgAcknowledgement returns an acknowledgement to the source chain with
// proof that the destination wrote it.
type MsgAcknowledgement struct {
	Packet      Packet
	Ack         []byte
	ProofAcked  *Proof
	ProofHeight int64
	Relayer     string
}

// MsgTimeout aborts a packet on the source chain with proof that the
// destination never received it before the timeout.
type MsgTimeout struct {
	Packet           Packet
	ProofUnreceived  *Proof
	ProofHeight      int64
	NextSequenceRecv uint64
	Relayer          string
}

// packetDigest builds "<kind><port>/<channel>/<sequence>" in one
// allocation: what a packet message contributes to its tx hash.
func packetDigest(kind string, p *Packet) []byte {
	d := make([]byte, 0, len(kind)+len(p.SourcePort)+len(p.SourceChannel)+22) // 2 slashes, 20 digits
	d = append(append(append(d, kind...), p.SourcePort...), '/')
	d = append(append(d, p.SourceChannel...), '/')
	return strconv.AppendUint(d, p.Sequence, 10)
}

// Route/MsgType/WireSize/Digest implementations.

func (MsgCreateClient) Route() string    { return RouteIBC }
func (MsgCreateClient) MsgType() string  { return "MsgCreateClient" }
func (MsgCreateClient) WireSize() int    { return 2000 }
func (m MsgCreateClient) Digest() []byte { return []byte("create/" + m.ClientID) }

func (MsgUpdateClient) Route() string   { return RouteIBC }
func (MsgUpdateClient) MsgType() string { return "MsgUpdateClient" }
func (MsgUpdateClient) WireSize() int   { return 1200 }
func (m MsgUpdateClient) Digest() []byte {
	d := make([]byte, 0, len("update/")+len(m.ClientID)+21) // slash, sign, 19 digits
	d = append(append(append(d, "update/"...), m.ClientID...), '/')
	return strconv.AppendInt(d, m.Bundle.Header.Height, 10)
}

func (MsgConnOpenInit) Route() string    { return RouteIBC }
func (MsgConnOpenInit) MsgType() string  { return "MsgConnOpenInit" }
func (MsgConnOpenInit) WireSize() int    { return 300 }
func (m MsgConnOpenInit) Digest() []byte { return []byte("conninit/" + m.ConnID) }

func (MsgConnOpenTry) Route() string    { return RouteIBC }
func (MsgConnOpenTry) MsgType() string  { return "MsgConnOpenTry" }
func (MsgConnOpenTry) WireSize() int    { return 900 }
func (m MsgConnOpenTry) Digest() []byte { return []byte("conntry/" + m.ConnID) }

func (MsgConnOpenAck) Route() string    { return RouteIBC }
func (MsgConnOpenAck) MsgType() string  { return "MsgConnOpenAck" }
func (MsgConnOpenAck) WireSize() int    { return 900 }
func (m MsgConnOpenAck) Digest() []byte { return []byte("connack/" + m.ConnID) }

func (MsgConnOpenConfirm) Route() string    { return RouteIBC }
func (MsgConnOpenConfirm) MsgType() string  { return "MsgConnOpenConfirm" }
func (MsgConnOpenConfirm) WireSize() int    { return 900 }
func (m MsgConnOpenConfirm) Digest() []byte { return []byte("connconfirm/" + m.ConnID) }

func (MsgChanOpenInit) Route() string    { return RouteIBC }
func (MsgChanOpenInit) MsgType() string  { return "MsgChanOpenInit" }
func (MsgChanOpenInit) WireSize() int    { return 300 }
func (m MsgChanOpenInit) Digest() []byte { return []byte("chaninit/" + m.Port + "/" + m.Channel) }

func (MsgChanOpenTry) Route() string    { return RouteIBC }
func (MsgChanOpenTry) MsgType() string  { return "MsgChanOpenTry" }
func (MsgChanOpenTry) WireSize() int    { return 900 }
func (m MsgChanOpenTry) Digest() []byte { return []byte("chantry/" + m.Port + "/" + m.Channel) }

func (MsgChanOpenAck) Route() string    { return RouteIBC }
func (MsgChanOpenAck) MsgType() string  { return "MsgChanOpenAck" }
func (MsgChanOpenAck) WireSize() int    { return 900 }
func (m MsgChanOpenAck) Digest() []byte { return []byte("chanack/" + m.Port + "/" + m.Channel) }

func (MsgChanOpenConfirm) Route() string    { return RouteIBC }
func (MsgChanOpenConfirm) MsgType() string  { return "MsgChanOpenConfirm" }
func (MsgChanOpenConfirm) WireSize() int    { return 900 }
func (m MsgChanOpenConfirm) Digest() []byte { return []byte("chanconfirm/" + m.Port + "/" + m.Channel) }

func (MsgRecvPacket) Route() string    { return RouteIBC }
func (MsgRecvPacket) MsgType() string  { return "MsgRecvPacket" }
func (MsgRecvPacket) WireSize() int    { return simconf.MsgRecvPacketBytes }
func (m MsgRecvPacket) Digest() []byte { return packetDigest("recv/", &m.Packet) }

func (MsgAcknowledgement) Route() string   { return RouteIBC }
func (MsgAcknowledgement) MsgType() string { return "MsgAcknowledgement" }
func (MsgAcknowledgement) WireSize() int   { return simconf.MsgAckBytes }
func (m MsgAcknowledgement) Digest() []byte {
	return packetDigest("ack/", &m.Packet)
}

func (MsgTimeout) Route() string   { return RouteIBC }
func (MsgTimeout) MsgType() string { return "MsgTimeout" }
func (MsgTimeout) WireSize() int   { return simconf.MsgAckBytes }
func (m MsgTimeout) Digest() []byte {
	return packetDigest("timeout/", &m.Packet)
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
