package simconf

import (
	"testing"
	"time"
)

// The calibration constants are fit to specific paper observations; these
// tests pin the relationships the experiment drivers depend on, so a
// retuned constant that silently breaks a reproduced shape fails here
// first.

// TestGasSchedulePinsPaperAverages pins the order of §IV-A's averages.
// app.TestGasScheduleMatchesPaper holds the schedule within 2 % of the
// averages themselves, and the fidelity report a live 100-message
// transaction within 5 %.
func TestGasSchedulePinsPaperAverages(t *testing.T) {
	if GasPerMsgRecvPacket <= GasPerMsgTransfer || GasPerMsgTransfer <= GasPerMsgAcknowledgement {
		t.Error("gas ordering must be recv > transfer > ack (§IV-A)")
	}
}

func TestConsensusTimingOrdering(t *testing.T) {
	if MinBlockInterval != 5*time.Second {
		t.Errorf("block floor %v, paper pins 5 s (§III-D)", MinBlockInterval)
	}
}

// TestWebSocketFrameKnee pins §V's overflow boundary: 1,000 txs of 100
// transfers overflow the 16 MiB frame, the Fig. 12 burst (50 txs) does
// not.
func TestWebSocketFrameKnee(t *testing.T) {
	frame := func(txs int) int {
		return txs * (EventBytesPerTxOverhead + 100*EventBytesPerTransferMsg)
	}
	if frame(1000) <= WebSocketMaxFrameBytes {
		t.Errorf("1000x100 frame = %d bytes, must exceed %d", frame(1000), WebSocketMaxFrameBytes)
	}
	if frame(50) >= WebSocketMaxFrameBytes {
		t.Errorf("50x100 frame = %d bytes, must stay below %d", frame(50), WebSocketMaxFrameBytes)
	}
}

// TestQueryCostAnchors keeps the serial-RPC model consistent with the
// relative response sizes of §V (recv responses ~1.75x transfer ones).
func TestQueryCostAnchors(t *testing.T) {
	if QueryCostPerRecvMsg <= QueryCostPerTransferMsg {
		t.Error("recv pulls must cost more than transfer pulls")
	}
	ratio := float64(QueryCostPerRecvMsg) / float64(QueryCostPerTransferMsg)
	if ratio < 1.4 || ratio > 2.5 {
		t.Errorf("recv/transfer pull ratio %.2f outside the §V band", ratio)
	}
	if BroadcastTxCost <= StatusQueryCost {
		t.Error("broadcast (CheckTx + insert) must outweigh light queries")
	}
}

func TestRelayerModelBounds(t *testing.T) {
	if RelayerMaxMsgsPerTx != 100 {
		t.Errorf("batch cap %d, paper pins 100 (§III-D)", RelayerMaxMsgsPerTx)
	}
	if RelayerBuildCostPerMsg <= RelayerEventParseCostPerMsg {
		t.Error("message build (proof assembly) must outweigh event parse")
	}
	if RelayerConfirmPollInterval <= 0 || RelayerConfirmPollInterval >= MinBlockInterval {
		t.Errorf("confirm poll %v must sit inside a block window", RelayerConfirmPollInterval)
	}
}

func TestExecTimeStretchesLargeBlocks(t *testing.T) {
	// Fig. 7: ~650 transfer txs of 100 msgs push execution time well past
	// the 5 s floor; a 1,000 rps block (50 txs) stays under it.
	perTx := 100*GasPerMsgTransfer + GasTxOverhead
	exec := func(txs int) time.Duration {
		return time.Duration(uint64(txs)*perTx*ExecNanosPerGas) * time.Nanosecond
	}
	if exec(650) <= 4*MinBlockInterval {
		t.Errorf("650-tx block executes in %v, must far exceed the %v floor", exec(650), MinBlockInterval)
	}
	if exec(50) >= MinBlockInterval {
		t.Errorf("50-tx block executes in %v, must stay under the floor", exec(50))
	}
}
