// Package abci defines the interface between the Tendermint consensus
// engine and the blockchain application, mirroring Tendermint's
// Application BlockChain Interface (§II-A of the paper): the consensus
// engine is generic and delegates transaction semantics to the app.
package abci

import (
	"time"

	"ibcbench/internal/tendermint/types"
)

// CodeOK is the response code of a successful transaction.
const CodeOK uint32 = 0

// Event is a typed event emitted by transaction execution; the relayer's
// WebSocket subscription consumes them to find pending IBC messages.
// Data is the value the emitter holds (an ibc.Packet on send_packet, an
// ibc.AckWrite on write_acknowledgement; abci cannot name those types).
// Events never leave the process — their wire cost is modelled in
// virtual time from transaction sizes — so nothing serialises them.
type Event struct {
	Type string
	Data any
}

// TxResult is the outcome of executing one transaction.
type TxResult struct {
	// Code is CodeOK on success; any other value marks the tx failed
	// (it remains in the block — cross-chain operations "may fail after
	// having steps recorded in the blockchain").
	Code uint32
	// Log carries the failure reason for non-OK codes.
	Log string
	// GasUsed is the gas consumed by execution.
	GasUsed uint64
	// Events are emitted regardless of inclusion ordering.
	Events []Event
}

// IsOK reports whether the transaction succeeded.
func (r TxResult) IsOK() bool { return r.Code == CodeOK }

// Application is the state machine driven by consensus.
type Application interface {
	// CheckTx performs stateless+ante validation for mempool admission.
	// An error keeps the transaction out of the mempool.
	CheckTx(tx types.Tx) error

	// BeginBlock starts execution of a new block.
	BeginBlock(height int64, now time.Duration)

	// DeliverTx executes a transaction against the candidate state.
	DeliverTx(tx types.Tx) TxResult

	// EndBlock finishes block execution.
	EndBlock(height int64)

	// Commit persists the candidate state and returns the new AppHash
	// that the next block header commits to.
	Commit() types.Hash
}
