package store

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"

	"ibcbench/internal/abci"
	"ibcbench/internal/tendermint/types"
)

type tx string

func (t tx) Hash() types.Hash  { return sha256.Sum256([]byte(t)) }
func (t tx) Size() int         { return len(t) }
func (t tx) GasWanted() uint64 { return 1 }

func block(height int64, txs ...types.Tx) *CommittedBlock {
	results := make([]abci.TxResult, len(txs))
	return &CommittedBlock{
		Block:   &types.Block{Header: types.Header{Height: height}, Data: txs},
		Commit:  &types.Commit{Height: height},
		Results: results,
	}
}

func TestAppendAndLookup(t *testing.T) {
	s := New()
	if s.Height() != 0 {
		t.Fatalf("initial height = %d", s.Height())
	}
	if err := s.Append(block(1, tx("a"), tx("b"))); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(block(2, tx("c"))); err != nil {
		t.Fatal(err)
	}
	if s.Height() != 2 {
		t.Fatalf("height = %d", s.Height())
	}
	cb, err := s.Block(1)
	if err != nil || len(cb.Block.Data) != 2 {
		t.Fatalf("block(1): %v", err)
	}
	info, err := s.Tx(tx("c").Hash())
	if err != nil {
		t.Fatal(err)
	}
	if info.Height != 2 || info.Index != 0 {
		t.Fatalf("tx info = %+v", info)
	}
}

func TestAppendRejectsGaps(t *testing.T) {
	s := New()
	if err := s.Append(block(2)); err == nil {
		t.Fatal("accepted height gap")
	}
	if err := s.Append(block(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(block(1)); err == nil {
		t.Fatal("accepted duplicate height")
	}
}

func TestAppendRejectsResultMismatch(t *testing.T) {
	s := New()
	cb := block(1, tx("a"))
	cb.Results = nil
	if err := s.Append(cb); err == nil {
		t.Fatal("accepted mismatched results")
	}
}

func TestNotFound(t *testing.T) {
	s := New()
	if _, err := s.Block(1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if _, err := s.Block(0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("height 0: %v", err)
	}
	if _, err := s.Tx(tx("missing").Hash()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("tx err = %v", err)
	}
	if _, err := s.TxsAtHeight(9); !errors.Is(err, ErrNotFound) {
		t.Fatalf("txs err = %v", err)
	}
}

func TestTxsAtHeight(t *testing.T) {
	s := New()
	var txs []types.Tx
	for i := 0; i < 20; i++ {
		txs = append(txs, tx(fmt.Sprintf("t%d", i)))
	}
	if err := s.Append(block(1, txs...)); err != nil {
		t.Fatal(err)
	}
	infos, err := s.TxsAtHeight(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 20 {
		t.Fatalf("got %d infos", len(infos))
	}
	for i, info := range infos {
		if info.Index != i || info.Height != 1 {
			t.Fatalf("info[%d] = %+v", i, info)
		}
	}
}
