package ibc

// MemoCap is the decode memo's bound, for the tests that fill it.
const MemoCap = memoCap

// MemoLen reports how many decoded objects the keeper remembers.
func (k *Keeper) MemoLen() int { return len(k.memo) }

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
	return string(AppendPacketCommitmentKey(nil, port, channel, seq))
}

func PacketReceiptKey(port, channel string, seq uint64) string {
	return string(AppendPacketReceiptKey(nil, port, channel, seq))
}

func PacketAckKey(port, channel string, seq uint64) string {
	return string(AppendPacketAckKey(nil, port, channel, seq))
}
