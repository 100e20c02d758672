// Package ibc implements the core Inter-Blockchain Communication
// protocol (§II-B of the paper): light clients tracking counterparty
// consensus, the connection and channel handshakes, and the packet
// lifecycle — send commitments, receipts, acknowledgements and timeouts —
// with merkle proof verification against counterparty state roots.
package ibc

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"ibcbench/internal/merkle"
)

// State machine phases for connections and channels.
type HandshakeState byte

// Handshake states (INIT/TRYOPEN/OPEN as in ICS-3 / ICS-4).
const (
	StateInit HandshakeState = iota + 1
	StateTryOpen
	StateOpen
)

// Order is the channel ordering mode.
type Order byte

// Channel orderings: the paper's experiments use an unordered channel.
const (
	Unordered Order = iota + 1
	Ordered
)

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

// CommitmentBytes is the value stored under the packet commitment key:
// a digest of the packet data and timeouts.
func (p *Packet) CommitmentBytes() []byte {
	h := sha256.New()
	var buf [48]byte // two int64s in decimal and two slashes fit in 42
	b := strconv.AppendInt(buf[:0], p.TimeoutHeight, 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(p.TimeoutTimestamp), 10)
	b = append(b, '/')
	h.Write(b)
	h.Write(p.Data)
	return h.Sum(nil)
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

func AppendPacketCommitmentKey(dst []byte, port, channel string, seq uint64) []byte {
	return AppendPacketKey(dst, "commitments", port, channel, seq)
}

func AppendPacketReceiptKey(dst []byte, port, channel string, seq uint64) []byte {
	return AppendPacketKey(dst, "receipts", port, channel, seq)
}

func AppendPacketAckKey(dst []byte, port, channel string, seq uint64) []byte {
	return AppendPacketKey(dst, "acks", port, channel, seq)
}

// AppendPacketKey appends "<kind>/ports/<port>/channels/<channel>/sequences/<seq>",
// the path of every per-packet record (middleware keep theirs under it
// too, with a kind of their own).
func AppendPacketKey(dst []byte, kind, port, channel string, seq uint64) []byte {
	dst = append(appendChannelPath(append(dst, kind...), port, channel), "/sequences/"...)
	return strconv.AppendUint(dst, seq, 10)
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
type ClientState struct {
	ChainID      string            `json:"chain_id"`
	LatestHeight int64             `json:"latest_height"`
	Validators   []ValidatorRecord `json:"validators"`
}

// ConsensusState is the verified counterparty state at one height: the
// app root proofs are checked against, and the block timestamp used for
// timeout checks.
type ConsensusState struct {
	Root      merkle.Hash   `json:"root"`
	Timestamp time.Duration `json:"timestamp"`
}

// ConnectionEnd is the stored connection state (ICS-3).
type ConnectionEnd struct {
	State                HandshakeState `json:"state"`
	ClientID             string         `json:"client_id"`
	CounterpartyConnID   string         `json:"counterparty_conn_id"`
	CounterpartyClientID string         `json:"counterparty_client_id"`
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

// Acknowledgement is the ICS-20-style result/error acknowledgement.
type Acknowledgement struct {
	Result []byte `json:"result,omitempty"`
	Error  string `json:"error,omitempty"`
}

// Success reports whether the acknowledgement is a success ack.
func (a Acknowledgement) Success() bool { return a.Error == "" }

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

// ParseAck deserializes an acknowledgement. Bytes' own output is read
// directly; any other document is json.Unmarshal's to accept or refuse.
func ParseAck(raw []byte) (Acknowledgement, error) {
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
// packet and the acknowledgement bytes stored (hashed) for it.
type AckWrite struct {
	Packet Packet
	Ack    []byte
}

// Proof carries a membership or non-membership proof for a state key on
// the counterparty, verified against a consensus state root. In
// performance mode (full proofs disabled) both fields are nil and
// verification is skipped — the virtual-time cost of proof handling is
// still modeled by the relayer's data-pull and build steps.
type Proof struct {
	Membership    *merkle.MembershipProof
	NonMembership *merkle.NonMembershipProof
}
