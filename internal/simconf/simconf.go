// Package simconf centralizes the performance-model constants that
// calibrate the simulation to the paper's measured environment
// (Gaia v7.0.3, Hermes 1.0.0, Intel i7-9700, Debian 11, 200 ms RTT).
//
// Every constant cites the paper observation it is derived from. The
// experiment drivers reproduce the paper's *shapes* (who wins, by what
// factor, where crossovers fall); absolute values track the paper because
// these constants are fit to its reported measurements.
//
// Calibration is read where it is used — consensus, rpc, relayer and
// workload name the constant at the point of use — and never copied into
// a config field: a value that no spec, experiment or flag varies has one
// place to live, and this is it.
package simconf

import "time"

// Gas schedule (§IV-A): "The 100 messages used in our transactions
// consume an average of 3,669,161 gas for transfers, 7,238,699 gas for
// receives and 3,107,462 gas for acknowledgements."
const (
	// GasPerMsgTransfer is the per-message gas of a MsgTransfer.
	GasPerMsgTransfer uint64 = 36692
	// GasPerMsgRecvPacket is the per-message gas of a MsgRecvPacket.
	GasPerMsgRecvPacket uint64 = 72387
	// GasPerMsgAcknowledgement is the per-message gas of a MsgAcknowledgement.
	GasPerMsgAcknowledgement uint64 = 31075
	// GasTxOverhead is the fixed per-transaction gas (signature
	// verification, ante handler).
	GasTxOverhead uint64 = 60000
	// GasPriceTokens is the Hermes config gas price: 0.01 token/gas.
	GasPriceTokens = 0.01
)

// Consensus timing (§III-D): "the time interval between the creation of
// two consecutive blocks is of at least 5 seconds. Blocks containing
// large amounts of transactions may increase the block interval beyond 5
// seconds to allow time for the transactions to be processed."
const (
	// MinBlockInterval is Tendermint's timeout_commit-driven floor.
	MinBlockInterval = 5 * time.Second
	// TimeoutPropose bounds how long validators wait for a proposal
	// before prevoting nil and moving to the next round.
	TimeoutPropose = 3 * time.Second
	// TimeoutRoundStep bounds prevote/precommit waits per round.
	TimeoutRoundStep = 1 * time.Second
	// ExecNanosPerGas converts block gas to execution time. Fit so a
	// block of ~650 x 100-msg transfer txs (13,000 RPS x 5 s / 100)
	// pushes the interval towards the paper's observed tens of seconds
	// (Fig. 7) while blocks below ~2,000 RPS stay inside the 5 s floor.
	ExecNanosPerGas = 24
	// ProposalBytesPerSecond models gossip bandwidth for block parts.
	ProposalBytesPerSecond = 64 << 20
)

// Transaction wire sizes, used for block byte totals and WebSocket event
// frame accounting.
const (
	// TxBaseBytes is the fixed envelope size of a signed transaction.
	TxBaseBytes = 350
	// MsgTransferBytes is the encoded size of one MsgTransfer.
	MsgTransferBytes = 260
	// MsgRecvPacketBytes includes the packet plus commitment proof.
	MsgRecvPacketBytes = 850
	// MsgAckBytes includes the ack plus acknowledgement proof.
	MsgAckBytes = 620
)

// RPC service model (§IV-B, §V): "Tendermint is unable to process
// queries in parallel, requiring the relayer to wait while its requests
// for data are processed one by one."
//
// Query costs are response-size proportional and fit to two anchors:
//   - Fig. 12: pulling 50 txs x 100 MsgTransfer costs 110 s in total
//     (2.2 s per tx) and 50 txs x 100 MsgRecvPacket costs 207 s
//     (4.14 s per tx).
//   - §V: querying a block of 20 txs x 100 MsgTransfer took 2.9 s
//     (145 ms/tx there — the CLI query shares pagination overhead; the
//     relayer-side per-tx anchor from Fig. 12 dominates our model).
const (
	// QueryCostPerTransferMsg is the base serial RPC time to return one
	// MsgTransfer's data in a tx query response. Data pulls additionally
	// scale with the block's total response size (QueryPageScaleMsgs):
	// at the paper's 5,000-msg burst block the effective cost is ~22 ms
	// per message (Fig. 12's 110 s for 50 txs).
	QueryCostPerTransferMsg = 1100 * time.Microsecond
	// QueryCostPerRecvMsg is the base serial RPC time per MsgRecvPacket
	// (responses are ~1.75x larger: 579,919 vs 331,706 output lines in §V);
	// effective ~41 ms per message at the 5,000-msg burst.
	QueryCostPerRecvMsg = 2 * time.Millisecond
	// QueryCostPerAckMsg is the per-message cost for acknowledgement data.
	QueryCostPerAckMsg = 2 * time.Millisecond
	// QueryPageScaleMsgs is the pagination knee: a data pull against a
	// block carrying M messages costs (1 + (M/QueryPageScaleMsgs)^2)
	// times its base cost, reflecting multi-page tx_search responses
	// whose cost grows superlinearly with block size (§V).
	QueryPageScaleMsgs = 900
	// QueryBaseCost is the fixed per-RPC-request overhead.
	QueryBaseCost = 4 * time.Millisecond
	// BroadcastTxCost is the serial RPC time to accept one broadcast_tx
	// (decode + CheckTx + mempool insert).
	BroadcastTxCost = 10 * time.Millisecond
	// StatusQueryCost covers light queries (status, account, commit).
	StatusQueryCost = 4 * time.Millisecond
)

// WebSocket event service (§V "WebSocket space limit"): "If the amount of
// data to retrieve exceeds the Tendermint Websocket maximum message size
// (16MB), the relayer emits the 'Failed to collect events' error."
const (
	// WebSocketMaxFrameBytes is Tendermint's maximum message size.
	WebSocketMaxFrameBytes = 16 << 20
	// EventBytesPerTransferMsg is the JSON event payload per MsgTransfer
	// in a NewBlock event frame. Fit so 1,000 txs x 100 transfers
	// (100,000 msgs) exceeds 16 MiB, while 5,000 msgs stays well below.
	EventBytesPerTransferMsg = 175
	// EventBytesPerTxOverhead is the per-tx envelope in an event frame.
	EventBytesPerTxOverhead = 700
)

// Hermes relayer processing model (Fig. 12): per-step CPU costs fit to
// the 13-step breakdown of 5,000 transfers submitted in one block —
// transfer phase 126 s (27.6%), receive phase 261 s (57.3%), ack phase
// 68 s (14.9%), total ~455 s.
const (
	// RelayerBuildCostPerMsg is the CPU time to build one outgoing IBC
	// message (proof assembly, encoding).
	RelayerBuildCostPerMsg = 2 * time.Millisecond
	// RelayerEventParseCostPerMsg is the per-message cost of extracting
	// pending messages from a block's events.
	RelayerEventParseCostPerMsg = 300 * time.Microsecond
	// RelayerSchedulingOverheadPerBatch is the fixed Packet Command
	// Worker overhead per block of operations.
	RelayerSchedulingOverheadPerBatch = 50 * time.Millisecond
	// RelayerMaxMsgsPerTx is Hermes' batching limit: "the maximum number
	// of messages per transaction allowed by the relayer application"
	// (§III-D) is 100.
	RelayerMaxMsgsPerTx = 100
	// RelayerConfirmPollInterval is how often the relayer polls for the
	// confirmation of a submitted transaction.
	RelayerConfirmPollInterval = 500 * time.Millisecond
)

// DefaultValidators is the paper's testnet size (§III-C): two chains of
// five validators each.
const DefaultValidators = 5
