package ibc

import "ibcbench/internal/app"

// The host object encoders, for the tests that hold them to
// json.Marshal.
var (
	AppendClientState    = appendClientState
	AppendConsensusState = appendConsensusState
	AppendConnectionEnd  = appendConnectionEnd
	AppendChannelEnd     = appendChannelEnd
)

// The success ack's literals and the ack commitment, for the test that
// holds the first to the second.
var (
	SuccessAckBytes      = successAckBytes
	SuccessAckCommitment = successAckCommitment
	HashAck              = func(ack []byte) []byte { return appendHashAck(nil, ack) }
)

// The string forms of the state keys, for the tests that prove or read
// them.

func ClientStateKey(clientID string) string {
	return string(AppendClientStateKey(nil, clientID))
}

func ConsensusStateKey(clientID string, height int64) string {
	return string(AppendConsensusStateKey(nil, clientID, height))
}

func ConnectionKey(connID string) string {
	return string(AppendConnectionKey(nil, connID))
}

func ChannelKey(port, channel string) string {
	return string(AppendChannelKey(nil, port, channel))
}

func NextSequenceSendKey(port, channel string) string {
	return string(AppendNextSequenceSendKey(nil, port, channel))
}

func PacketCommitmentKey(port, channel string, seq uint64) string {
	return recordKey(PacketRecords(nil, app.Commitment, port, channel), seq)
}

func PacketReceiptKey(port, channel string, seq uint64) string {
	return recordKey(PacketRecords(nil, app.Receipt, port, channel), seq)
}

func PacketAckKey(port, channel string, seq uint64) string {
	return recordKey(PacketRecords(nil, app.Ack, port, channel), seq)
}
