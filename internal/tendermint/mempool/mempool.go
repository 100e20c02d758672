// Package mempool implements the pending-transaction pool from which
// block proposers reap transactions.
//
// The simulation uses one pool per chain, standing in for the gossiped
// union of every validator's pool; with five co-located validators and a
// relayer talking to local endpoints (the paper's §III-C deployment) the
// pools converge well within a block interval, so a shared pool preserves
// the observable behaviour while keeping runs deterministic.
package mempool

import (
	"errors"

	"ibcbench/internal/tendermint/types"
)

// Pool admission errors.
var (
	// ErrFull reports that the pool hit its transaction-count capacity.
	ErrFull = errors.New("mempool: full")
	// ErrDuplicate reports a transaction already in the pool.
	ErrDuplicate = errors.New("mempool: tx already present")
	// ErrTooLarge reports a transaction exceeding the per-tx byte cap.
	ErrTooLarge = errors.New("mempool: tx exceeds max size")
)

// Gaia's mempool bounds.
const (
	// maxTxs caps the number of pending transactions (Tendermint's
	// mempool.size).
	maxTxs = 5000
	// maxTxBytes caps a single transaction's size.
	maxTxBytes = 1 << 20
)

// CheckFunc validates a transaction for admission (the app's CheckTx).
type CheckFunc func(types.Tx) error

// Pool is a FIFO transaction pool with duplicate suppression.
type Pool struct {
	check   CheckFunc
	txs     []types.Tx
	present map[types.Hash]bool

	added    uint64
	rejected uint64
}

// New returns an empty pool. check may be nil (no app-level validation).
func New(check CheckFunc) *Pool {
	return &Pool{
		check:   check,
		present: make(map[types.Hash]bool),
	}
}

// Size reports the number of pending transactions.
func (p *Pool) Size() int { return len(p.txs) }

// Added reports the total number of admitted transactions.
func (p *Pool) Added() uint64 { return p.added }

// Rejected reports the total number of rejected submissions.
func (p *Pool) Rejected() uint64 { return p.rejected }

// Add validates and enqueues a transaction.
func (p *Pool) Add(tx types.Tx) error {
	if tx.Size() > maxTxBytes {
		p.rejected++
		return ErrTooLarge
	}
	if len(p.txs) >= maxTxs {
		p.rejected++
		return ErrFull
	}
	h := tx.Hash()
	if p.present[h] {
		p.rejected++
		return ErrDuplicate
	}
	if p.check != nil {
		if err := p.check(tx); err != nil {
			p.rejected++
			return err
		}
	}
	p.txs = append(p.txs, tx)
	p.present[h] = true
	p.added++
	return nil
}

// Reap returns every pending transaction in FIFO order, without removing
// them: blocks are unbounded in bytes and gas, and a large block pays for
// itself in execution time instead.
func (p *Pool) Reap() []types.Tx {
	var out []types.Tx
	for _, tx := range p.txs {
		out = append(out, tx)
	}
	return out
}

// Update removes committed transactions from the pool.
func (p *Pool) Update(committed []types.Tx) {
	if len(committed) == 0 {
		return
	}
	gone := make(map[types.Hash]bool, len(committed))
	for _, tx := range committed {
		gone[tx.Hash()] = true
	}
	kept := p.txs[:0]
	for _, tx := range p.txs {
		if gone[tx.Hash()] {
			delete(p.present, tx.Hash())
			continue
		}
		kept = append(kept, tx)
	}
	// Zero trailing slots so removed txs can be collected.
	for i := len(kept); i < len(p.txs); i++ {
		p.txs[i] = nil
	}
	p.txs = kept
}
