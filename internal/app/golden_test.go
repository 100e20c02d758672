package app

import (
	"encoding/hex"
	"fmt"
	"testing"

	"ibcbench/internal/merkle"
)

// TestGoldenRoots pins the merkle roots of a scripted state workload to
// the exact values the pre-incremental implementation (a full
// merkle.NewTree rebuild per commit) produced. Any silent divergence in
// the commit path — leaf encoding, ordering, padding, dirty-key
// bookkeeping — fails here before it can corrupt cross-chain proofs.
func TestGoldenRoots(t *testing.T) {
	golden := map[int64]string{
		1:  "7ab2ae03a2a8daea555afda1fa8d14c17dcd63530b10b6ab22afa6fcf6d3dba2",
		5:  "3bc745561f1f1f7b09a4c39e36a0a9b6973207a48c5ad9c928dbd0d6ecff0859",
		12: "af7243670f65a779599f46a4e2e3529ff7793280aedece27e5b8afc74ef22648",
		24: "eedb650ba87b14128f81ab6e448929cb6cc594e7c16298a47332656d8b37d275",
	}
	s := NewState(true)
	key := func(i int) []byte { return fmt.Appendf(nil, "key/%04d", i) }
	val := func(h, i int) []byte { return []byte(fmt.Sprintf("val-%d-%d", h, i)) }
	for h := int64(1); h <= 24; h++ {
		for i := 0; i < 3; i++ {
			s.Set(key(int(h)*10+i), val(int(h), i))
		}
		if h > 1 {
			s.Set(key((int(h)-1)*10), val(int(h), 99))
			s.Set(key((int(h)/2)*10+1), val(int(h), 98))
		}
		if h%4 == 0 {
			s.Delete(key((int(h)-2)*10 + 2))
		}
		s.CommitTx()
		root := s.Commit(h)
		if want, ok := golden[h]; ok {
			if got := hex.EncodeToString(root[:]); got != want {
				t.Fatalf("height %d: root %s, golden %s", h, got, want)
			}
		}
	}
}

// TestCommitMatchesFullRebuild cross-checks every incremental commit of
// a churny workload against a from-scratch merkle.NewTree over the same
// snapshot.
func TestCommitMatchesFullRebuild(t *testing.T) {
	s := NewState(true)
	shadow := make(map[string][]byte)
	set := func(k string, v []byte) {
		s.Set([]byte(k), v)
		shadow[k] = v
	}
	del := func(k string) {
		s.Delete([]byte(k))
		delete(shadow, k)
	}
	for h := int64(1); h <= 40; h++ {
		set(fmt.Sprintf("acct/%d", h%7), []byte(fmt.Sprintf("bal%d", h)))
		set(fmt.Sprintf("commitments/%d", h), []byte("c"))
		if h > 3 {
			del(fmt.Sprintf("commitments/%d", h-3))
		}
		s.CommitTx()
		got := s.Commit(h)
		if want := merkle.NewTree(shadow).Root(); got != want {
			t.Fatalf("height %d: incremental root %x != rebuild %x", h, got, want)
		}
	}
}
