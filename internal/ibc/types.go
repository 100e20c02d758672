// Package ibc implements the core Inter-Blockchain Communication
// protocol (§II-B of the paper): light clients tracking counterparty
// consensus, the open channel ends a relayer works over (seeded by
// SeedOpenEnd, as the paper opens its channel once before measuring),
// and the packet lifecycle — send commitments, receipts,
// acknowledgements and timeouts — with merkle proof verification against
// counterparty state roots.
package ibc

import (
	"cmp"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"ibcbench/internal/app"
	"ibcbench/internal/merkle"
	"ibcbench/internal/tendermint/types"
)

// HandshakeState is the phase of a connection or channel end.
type HandshakeState byte

// StateOpen is a finished handshake's state, stored as the value ICS-3
// and ICS-4 give it. INIT (1) and TRYOPEN (2) are never stored: every
// end is seeded open.
const StateOpen HandshakeState = 3

// Order is the channel ordering mode.
type Order byte

// Unordered is the ordering of the paper's channel, stored as the value
// ICS-4 gives it.
const Unordered Order = 1

// Packet is an IBC packet (ICS-4).
type Packet struct {
	Sequence         uint64        `json:"sequence"`
	SourcePort       string        `json:"source_port"`
	SourceChannel    string        `json:"source_channel"`
	DestPort         string        `json:"dest_port"`
	DestChannel      string        `json:"dest_channel"`
	Data             []byte        `json:"data"`
	TimeoutHeight    int64         `json:"timeout_height,omitempty"`
	TimeoutTimestamp time.Duration `json:"timeout_timestamp,omitempty"`
}

// AppendCommitment appends the value stored in the packet's commitment
// record, a digest of the packet data and timeouts, to dst: into a
// caller's buffer of sha256.Size bytes, it allocates nothing.
func (p *Packet) AppendCommitment(dst []byte) []byte {
	h := sha256.New()
	var buf [48]byte // two int64s in decimal and two slashes fit in 42
	b := strconv.AppendInt(buf[:0], p.TimeoutHeight, 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(p.TimeoutTimestamp), 10)
	b = append(b, '/')
	h.Write(b)
	h.Write(p.Data)
	return h.Sum(dst)
}

// Key paths in the application state (ICS-24 host requirements). Each
// layout is spelled once, as an append into the caller's buffer: the
// keeper builds its keys in an [app.KeyBufLen]byte on its stack, and the
// State copies a key only when it first inserts it.

func AppendClientStateKey(dst []byte, clientID string) []byte {
	return append(append(append(dst, "clients/"...), clientID...), "/clientState"...)
}

func AppendConsensusStateKey(dst []byte, clientID string, height int64) []byte {
	dst = append(append(append(dst, "clients/"...), clientID...), "/consensusStates/"...)
	return strconv.AppendInt(dst, height, 10)
}

func AppendConnectionKey(dst []byte, connID string) []byte {
	return append(append(dst, "connections/"...), connID...)
}

func AppendChannelKey(dst []byte, port, channel string) []byte {
	return appendChannelPath(append(dst, "channelEnds"...), port, channel)
}

func AppendNextSequenceSendKey(dst []byte, port, channel string) []byte {
	return appendChannelPath(append(dst, "nextSequenceSend"...), port, channel)
}

// recordPaths spells the first path segment of each kind of packet
// record the store keeps in tables.
var recordPaths = [...]string{app.Commitment: "commitments", app.Receipt: "receipts", app.Ack: "acks"}

// AppendPacketKey appends "<kind>/ports/<port>/channels/<channel>/sequences/<seq>",
// the path of every per-packet record (middleware keep theirs under it
// too, with a kind of their own).
func AppendPacketKey(dst []byte, kind, port, channel string, seq uint64) []byte {
	return strconv.AppendUint(appendPacketPrefix(dst, kind, port, channel), seq, 10)
}

// appendPacketPrefix appends AppendPacketKey's path up to the sequence.
func appendPacketPrefix(dst []byte, kind, port, channel string) []byte {
	return append(appendChannelPath(append(dst, kind...), port, channel), "/sequences/"...)
}

// PacketRecords names the store's table of one kind of packet record on
// channel end port/channel, its prefix built in b: the one way to reach
// a packet record in an app.State (SetRecord, GetRecord, ...).
func PacketRecords(b []byte, kind app.RecordKind, port, channel string) app.Records {
	return app.Records{Kind: kind, Channel: channel, Prefix: appendPacketPrefix(b, recordPaths[kind], port, channel)}
}

// CutPacketKey splits a key of AppendPacketKey's layout, or of a
// per-channel one such as AppendNextSequenceSendKey's (seq 0), into its
// kind, channel and sequence; ok is false for a key of any other layout.
func CutPacketKey(k string) (kind, channel string, seq uint64, ok bool) {
	kind, rest, _ := strings.Cut(k, "/")
	if rest, ok = strings.CutPrefix(rest, "ports/"); !ok {
		return "", "", 0, false
	}
	_, rest, ok = strings.Cut(rest, "/channels/")
	channel, num, hasSeq := strings.Cut(rest, "/sequences/")
	seq, err := strconv.ParseUint(cmp.Or(num, "0"), 10, 64) // no error to allocate for a key without one
	return kind, channel, seq, ok && err == nil && hasSeq == (num != "")
}

// appendChannelPath appends "/ports/<port>/channels/<channel>".
func appendChannelPath(dst []byte, port, channel string) []byte {
	dst = append(append(dst, "/ports/"...), port...)
	return append(append(dst, "/channels/"...), channel...)
}

// ValidatorRecord pins one counterparty validator in a client state.
type ValidatorRecord struct {
	PubKey []byte `json:"pub_key"`
	Power  int64  `json:"power"`
}

// ClientState is the stored light-client state for a counterparty chain.
// The unexported fields are what the keeper keeps for the client beside
// what it stores: they are never encoded, and each updateClient carries
// them forward into the state it writes.
type ClientState struct {
	ChainID      string            `json:"chain_id"`
	LatestHeight int64             `json:"latest_height"`
	Validators   []ValidatorRecord `json:"validators"`

	// counterparty is the state of the chain the client tracks (see
	// SeedOpenEnd); nil when the keeper does not have it.
	counterparty *app.State
	// valset is the set Validators names, and verifier the memory of the
	// client's accepted proof paths: the proofs of one relayed batch share
	// a root and most of their path. The client's first full-proof update
	// makes both; a client state written with other Validators is a new
	// value, which carries neither.
	valset   *types.ValidatorSet
	verifier *merkle.Verifier
}

// ConsensusState is the verified counterparty state at one height: the
// app root proofs are checked against, and the block timestamp used for
// timeout checks.
type ConsensusState struct {
	Root      merkle.Hash   `json:"root"`
	Timestamp time.Duration `json:"timestamp"`
}

// appendClientState appends the bytes json.Marshal writes for cs.
func appendClientState(dst []byte, cs *ClientState) []byte {
	dst = AppendJSONString(append(dst, `{"chain_id":`...), cs.ChainID)
	dst = strconv.AppendInt(append(dst, `,"latest_height":`...), cs.LatestHeight, 10)
	dst = append(dst, `,"validators":`...)
	if cs.Validators == nil {
		return append(dst, "null}"...)
	}
	dst = append(dst, '[')
	for i, vr := range cs.Validators {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"pub_key":`...)
		if vr.PubKey == nil {
			dst = append(dst, "null"...)
		} else {
			dst = append(base64.StdEncoding.AppendEncode(append(dst, '"'), vr.PubKey), '"')
		}
		dst = append(strconv.AppendInt(append(dst, `,"power":`...), vr.Power, 10), '}')
	}
	return append(dst, "]}"...)
}

// appendConsensusState appends the bytes json.Marshal writes for cs: the
// root is an array, so it is written as 32 numbers, not in base64.
func appendConsensusState(dst []byte, cs *ConsensusState) []byte {
	dst = append(dst, `{"root":[`...)
	for i, b := range cs.Root {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, uint64(b), 10)
	}
	dst = strconv.AppendInt(append(dst, `],"timestamp":`...), int64(cs.Timestamp), 10)
	return append(dst, '}')
}

// ConnectionEnd is the stored connection state (ICS-3).
type ConnectionEnd struct {
	State                HandshakeState `json:"state"`
	ClientID             string         `json:"client_id"`
	CounterpartyConnID   string         `json:"counterparty_conn_id"`
	CounterpartyClientID string         `json:"counterparty_client_id"`
}

// appendConnectionEnd appends the bytes json.Marshal writes for c.
func appendConnectionEnd(dst []byte, c *ConnectionEnd) []byte {
	dst = strconv.AppendUint(append(dst, `{"state":`...), uint64(c.State), 10)
	dst = AppendJSONString(append(dst, `,"client_id":`...), c.ClientID)
	dst = AppendJSONString(append(dst, `,"counterparty_conn_id":`...), c.CounterpartyConnID)
	dst = AppendJSONString(append(dst, `,"counterparty_client_id":`...), c.CounterpartyClientID)
	return append(dst, '}')
}

// ChannelEnd is the stored channel state (ICS-4).
type ChannelEnd struct {
	State            HandshakeState `json:"state"`
	Ordering         Order          `json:"ordering"`
	CounterpartyPort string         `json:"counterparty_port"`
	CounterpartyChan string         `json:"counterparty_chan"`
	ConnectionID     string         `json:"connection_id"`
	Version          string         `json:"version"`
}

// appendChannelEnd appends the bytes json.Marshal writes for ch.
func appendChannelEnd(dst []byte, ch *ChannelEnd) []byte {
	dst = strconv.AppendUint(append(dst, `{"state":`...), uint64(ch.State), 10)
	dst = strconv.AppendUint(append(dst, `,"ordering":`...), uint64(ch.Ordering), 10)
	dst = AppendJSONString(append(dst, `,"counterparty_port":`...), ch.CounterpartyPort)
	dst = AppendJSONString(append(dst, `,"counterparty_chan":`...), ch.CounterpartyChan)
	dst = AppendJSONString(append(dst, `,"connection_id":`...), ch.ConnectionID)
	dst = AppendJSONString(append(dst, `,"version":`...), ch.Version)
	return append(dst, '}')
}

// Acknowledgement is the ICS-20-style result/error acknowledgement.
type Acknowledgement struct {
	Result []byte `json:"result,omitempty"`
	Error  string `json:"error,omitempty"`
}

// Success reports whether the acknowledgement is a success ack.
func (a Acknowledgement) Success() bool { return a.Error == "" }

// SuccessAck is the one success acknowledgement the transfer module and
// the forwarding middleware answer with (result 0x01, base64 "AQ=="). It
// is shared and immutable like an emitted AckWrite: no one writes to it
// or to its Result.
var SuccessAck = &Acknowledgement{Result: []byte("AQ==")}

// receiptValue is the value of every stored packet receipt. The store
// shares it across receipts, so it is never written to.
var receiptValue = []byte{1}

// successAckBytes is SuccessAck.Bytes(), and successAckCommitment its
// hashAck, spelled out so that writing or reading a success ack encodes,
// hashes and decodes nothing (TestSuccessAckLiterals recomputes both).
// The store and every write_acknowledgement event share them, so they
// are never written to either.
var (
	successAckBytes      = []byte(`{"result":"QVE9PQ=="}`)
	successAckCommitment = []byte{
		0x4e, 0xaf, 0x86, 0x63, 0x92, 0x79, 0x6e, 0x83,
		0x36, 0xbd, 0x4c, 0x39, 0x07, 0x2f, 0xb5, 0xbd,
		0x66, 0x8d, 0xf3, 0xfc, 0x0c, 0xce, 0x4b, 0xe2,
		0xf0, 0x7f, 0x5b, 0xa1, 0xcc, 0x70, 0x80, 0xf3,
	}
)

// Bytes serializes the acknowledgement: the bytes json.Marshal writes
// (their hash is the stored ack commitment), appended directly.
func (a Acknowledgement) Bytes() []byte {
	b := make([]byte, 0, 24+base64.StdEncoding.EncodedLen(len(a.Result))+len(a.Error))
	b = append(b, '{')
	if len(a.Result) > 0 {
		b = append(b, `"result":"`...)
		b = base64.StdEncoding.AppendEncode(b, a.Result)
		b = append(b, '"')
	}
	if a.Error != "" {
		if len(b) > 1 {
			b = append(b, ',')
		}
		b = AppendJSONString(append(b, `"error":`...), a.Error)
	}
	return append(b, '}')
}

// ParseAck deserializes an acknowledgement. The success ack's bytes give
// the shared SuccessAck; any other output of Bytes is read directly, and
// any other document is json.Unmarshal's to accept or refuse.
func ParseAck(raw []byte) (Acknowledgement, error) {
	if string(raw) == string(successAckBytes) {
		return *SuccessAck, nil
	}
	var a Acknowledgement
	r := JSONReader{Buf: raw}
	r.Expect("{")
	errorKey := `"error":`
	if r.Skip(`"result":`) {
		enc := r.Bytes()
		a.Result = make([]byte, base64.StdEncoding.DecodedLen(len(enc)))
		n, err := base64.StdEncoding.Decode(a.Result, enc)
		if err != nil {
			r.Fail()
		}
		a.Result = a.Result[:n]
		errorKey = `,"error":`
	}
	if r.Skip(errorKey) {
		a.Error = string(r.Bytes())
	}
	r.Expect("}")
	if r.Done() {
		return a, nil
	}
	var slow Acknowledgement // not a: the address taken would move a to the heap
	if err := json.Unmarshal(raw, &slow); err != nil {
		return slow, fmt.Errorf("ibc: parse ack: %w", err)
	}
	return slow, nil
}

// AckWrite is the payload of a write_acknowledgement event: the received
// packet and the acknowledgement bytes stored (hashed) for it. The event
// carries it by pointer, and no reader writes through that pointer.
type AckWrite struct {
	Packet Packet
	Ack    []byte
}
