package mempool

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"

	"ibcbench/internal/tendermint/types"
)

type tx struct {
	id   string
	size int
	gas  uint64
}

func (t tx) Hash() types.Hash  { return sha256.Sum256([]byte(t.id)) }
func (t tx) Size() int         { return t.size }
func (t tx) GasWanted() uint64 { return t.gas }

func mk(i int) tx { return tx{id: fmt.Sprintf("tx-%d", i), size: 10, gas: 100} }

func TestAddAndReapFIFO(t *testing.T) {
	p := New(nil)
	for i := 0; i < 5; i++ {
		if err := p.Add(mk(i)); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
	}
	got := p.Reap()
	if len(got) != 5 {
		t.Fatalf("reaped %d", len(got))
	}
	for i, g := range got {
		if g.(tx).id != fmt.Sprintf("tx-%d", i) {
			t.Fatalf("not FIFO at %d: %v", i, g)
		}
	}
	// Reap does not remove.
	if p.Size() != 5 {
		t.Fatalf("size after reap = %d", p.Size())
	}
}

func TestDuplicateRejected(t *testing.T) {
	p := New(nil)
	if err := p.Add(mk(1)); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(mk(1)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v, want ErrDuplicate", err)
	}
	if p.Rejected() != 1 || p.Added() != 1 {
		t.Fatalf("added=%d rejected=%d", p.Added(), p.Rejected())
	}
}

func TestCapacity(t *testing.T) {
	p := New(nil)
	for i := 0; i < maxTxs; i++ {
		if err := p.Add(mk(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Add(mk(maxTxs)); !errors.Is(err, ErrFull) {
		t.Fatalf("err = %v, want ErrFull", err)
	}
}

func TestTooLarge(t *testing.T) {
	p := New(nil)
	if err := p.Add(tx{id: "big", size: maxTxBytes + 1}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	if err := p.Add(tx{id: "at-cap", size: maxTxBytes}); err != nil {
		t.Fatalf("tx at the size cap rejected: %v", err)
	}
}

func TestCheckFuncRejects(t *testing.T) {
	bad := errors.New("ante: sequence mismatch")
	p := New(func(types.Tx) error { return bad })
	if err := p.Add(mk(1)); !errors.Is(err, bad) {
		t.Fatalf("err = %v, want ante error", err)
	}
	if p.Size() != 0 {
		t.Fatal("rejected tx entered pool")
	}
}

func TestUpdateRemovesCommitted(t *testing.T) {
	p := New(nil)
	for i := 0; i < 6; i++ {
		if err := p.Add(mk(i)); err != nil {
			t.Fatal(err)
		}
	}
	p.Update([]types.Tx{mk(0), mk(2), mk(4)})
	if p.Size() != 3 {
		t.Fatalf("size = %d", p.Size())
	}
	got := p.Reap()
	want := []string{"tx-1", "tx-3", "tx-5"}
	for i := range want {
		if got[i].(tx).id != want[i] {
			t.Fatalf("remaining[%d] = %v", i, got[i])
		}
	}
	// Committed txs can be re-added afterwards (hash freed).
	if err := p.Add(mk(0)); err != nil {
		t.Fatalf("re-add after commit: %v", err)
	}
}

func TestUpdateNoop(t *testing.T) {
	p := New(nil)
	if err := p.Add(mk(1)); err != nil {
		t.Fatal(err)
	}
	p.Update(nil)
	if p.Size() != 1 {
		t.Fatal("no-op update changed pool")
	}
}
