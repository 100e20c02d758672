// Package store keeps the committed chain: blocks, commits, execution
// results and the transaction/event indexes that back the RPC queries
// the relayer depends on (tx lookup by hash, tx_search by height).
package store

import (
	"errors"
	"fmt"

	"ibcbench/internal/abci"
	"ibcbench/internal/tendermint/types"
)

// ErrNotFound reports a missing block or transaction.
var ErrNotFound = errors.New("store: not found")

// TxInfo locates an executed transaction and carries its result.
type TxInfo struct {
	Height int64
	Index  int
	Tx     types.Tx
	Result abci.TxResult
}

// CommittedBlock pairs a block with the commit that finalized it and the
// per-transaction execution results.
type CommittedBlock struct {
	Block   *types.Block
	Commit  *types.Commit
	Results []abci.TxResult
}

// Store is the append-only block store of one chain. The committed
// blocks are immutable once appended.
type Store struct {
	blocks  []*CommittedBlock // index 0 = height 1
	txIndex map[types.Hash]*TxInfo
	// txsByHeight caches each block's TxInfo slice (the same records the
	// hash index points at), so per-height queries, event publication and
	// the event index all share one materialization per block.
	txsByHeight [][]*TxInfo
}

// New returns an empty store.
func New() *Store {
	return &Store{txIndex: make(map[types.Hash]*TxInfo)}
}

// Height reports the latest committed height (0 before the first block).
func (s *Store) Height() int64 { return int64(len(s.blocks)) }

// Append adds the next block. Heights must be contiguous from 1.
func (s *Store) Append(cb *CommittedBlock) error {
	want := int64(len(s.blocks)) + 1
	if cb.Block.Header.Height != want {
		return fmt.Errorf("store: appending height %d, want %d", cb.Block.Header.Height, want)
	}
	if len(cb.Results) != len(cb.Block.Data) {
		return fmt.Errorf("store: %d results for %d txs", len(cb.Results), len(cb.Block.Data))
	}
	s.blocks = append(s.blocks, cb)
	infos := make([]*TxInfo, len(cb.Block.Data))
	for i, tx := range cb.Block.Data {
		info := &TxInfo{
			Height: cb.Block.Header.Height,
			Index:  i,
			Tx:     tx,
			Result: cb.Results[i],
		}
		infos[i] = info
		s.txIndex[tx.Hash()] = info
	}
	s.txsByHeight = append(s.txsByHeight, infos)
	return nil
}

// Block returns the committed block at height.
func (s *Store) Block(height int64) (*CommittedBlock, error) {
	if height < 1 || height > int64(len(s.blocks)) {
		return nil, ErrNotFound
	}
	return s.blocks[height-1], nil
}

// Tx looks up an executed transaction by hash.
func (s *Store) Tx(hash types.Hash) (*TxInfo, error) {
	info, ok := s.txIndex[hash]
	if !ok {
		return nil, ErrNotFound
	}
	return info, nil
}

// TxsAtHeight returns the transactions of one block with their results,
// the backing data of the paper's `tx_search --events tx.height=X` query.
// The returned slice is the store's cached materialization; callers must
// treat it as read-only.
func (s *Store) TxsAtHeight(height int64) ([]*TxInfo, error) {
	if height < 1 || height > int64(len(s.blocks)) {
		return nil, ErrNotFound
	}
	return s.txsByHeight[height-1], nil
}
