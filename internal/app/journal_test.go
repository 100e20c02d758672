package app

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"ibcbench/internal/merkle"
)

// naiveState is the reference FuzzStateJournal diffs State against: no
// journal, no marks. A transaction is a full copy of the map, the latest
// height is another, the proof root is a full merkle.NewTree rebuild and the
// non-proof root is the hash chain over the block's dirty keys as the
// store defined it when it kept a map of them: every key a committed
// transaction wrote, changed or not.
type naiveState struct {
	cur       map[string]string // what reads see, in-tx writes included
	committed map[string]string // cur as of the last CommitTx/AbortTx/Commit
	txDirty   map[string]bool
	dirty     map[string]bool   // the block's dirty keys
	height    int64             // the latest committed height
	latest    map[string]string // the map at that height
	root      merkle.Hash
}

func newNaiveState() *naiveState {
	return &naiveState{
		cur:       map[string]string{},
		committed: map[string]string{},
		txDirty:   map[string]bool{},
		dirty:     map[string]bool{},
		root:      sha256.Sum256([]byte("ibcbench/genesis")),
	}
}

func byteMap(m map[string]string) map[string][]byte {
	out := make(map[string][]byte, len(m))
	for k, v := range m {
		out[k] = []byte(v)
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (n *naiveState) set(k, v string) { n.cur[k] = v; n.txDirty[k] = true }
func (n *naiveState) del(k string)    { delete(n.cur, k); n.txDirty[k] = true }

func (n *naiveState) commitTx() {
	n.committed = maps.Clone(n.cur)
	for k := range n.txDirty {
		n.dirty[k] = true
	}
	n.txDirty = map[string]bool{}
}

func (n *naiveState) abortTx() {
	n.cur = maps.Clone(n.committed)
	n.txDirty = map[string]bool{}
}

func (n *naiveState) commit(height int64, fullProofs bool) {
	n.abortTx()
	if fullProofs {
		n.root = merkle.NewTree(byteMap(n.cur)).Root()
	} else {
		h := sha256.New()
		h.Write(n.root[:])
		var be [8]byte
		binary.BigEndian.PutUint64(be[:], uint64(height))
		h.Write(be[:])
		for _, k := range sortedKeys(n.dirty) {
			h.Write([]byte(k))
			if v, ok := n.cur[k]; ok {
				h.Write([]byte(v))
			} else {
				h.Write([]byte{0xff})
			}
		}
		copy(n.root[:], h.Sum(nil))
	}
	n.height, n.latest = height, maps.Clone(n.cur)
	n.dirty = map[string]bool{}
}

// FuzzStateJournal drives one State per mode and the naive model with
// operations decoded from the input, read in (op, key) pairs: op%8 == 0
// commits the block, 1 commits the transaction, 2 aborts it, 3 deletes
// (often an absent key), 4 sets the key to the value it already has, the
// rest set a fresh value. The 16-key space under two prefixes makes the
// same key being written many times per transaction and per block, and
// re-creation after a delete, routine. Every key reaches the store through
// one reused buffer that is scribbled over after each call (callerKeys),
// so a store keeping caller key bytes anywhere diverges from the model.
func FuzzStateJournal(f *testing.F) {
	f.Add([]byte{5, 1, 5, 2, 1, 0, 0, 0, 5, 1, 3, 2, 5, 9, 2, 0, 0, 0})             // commit, then an aborted overwrite/delete/create
	f.Add([]byte{5, 3, 1, 0, 5, 3, 3, 3, 5, 3, 3, 7, 2, 0, 4, 3, 1, 0, 0, 0})       // abort after a committed tx in the same block; equal-value set
	f.Add([]byte{3, 4, 1, 0, 0, 0, 0, 0, 5, 4, 0, 0, 3, 4, 5, 4, 3, 4, 1, 0, 0, 0}) // delete of an absent key dirties it; empty block; uncommitted write dropped by Commit
	f.Add([]byte{5, 0, 6, 0, 7, 0, 1, 0, 5, 0, 1, 0, 0, 0, 6, 8, 0, 0, 7, 8, 1, 0, 0, 0, 3, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0})

	key := func(b byte) string { return fmt.Sprintf("%c/k%02d", 'a'+b%2, b%16) }
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fullProofs := range []bool{false, true} {
			s, n, ck := NewState(fullProofs), newNaiveState(), &callerKeys{}
			height := int64(0)
			for i := 0; i+1 < len(data); i += 2 {
				switch op, k := data[i]%8, key(data[i+1]); op {
				case 0:
					height++
					written := sortedKeys(n.dirty)
					n.commit(height, fullProofs)
					if got := s.Commit(height); got != n.root {
						t.Fatalf("fullProofs=%v height %d: root %x, model %x", fullProofs, height, got, n.root)
					}
					if got := s.Written(); !slices.Equal(got, written) {
						t.Fatalf("fullProofs=%v height %d: Written %q, model %q", fullProofs, height, got, written)
					}
					checkCommit(t, s, n)
					checkLatest(t, s, n, fullProofs, key)
				case 1:
					s.CommitTx()
					n.commitTx()
				case 2:
					s.AbortTx()
					n.abortTx()
				case 3:
					ck.do(k, s.Delete)
					n.del(k)
				case 4:
					if v, ok := n.cur[k]; ok {
						ck.do(k, func(b []byte) { s.Set(b, []byte(v)) })
						n.set(k, v)
					}
				default:
					v := fmt.Sprintf("v%d", i)
					ck.do(k, func(b []byte) { s.Set(b, []byte(v)) })
					n.set(k, v)
				}
				checkReads(t, s, n, ck, key)
			}
			checkLatest(t, s, n, fullProofs, key)
		}
	})
}

// callerKeys hands the store each key in one reused buffer and scribbles
// over the buffer after the call, as a caller building its keys on the
// stack does: a store that kept those bytes in its map, journal or
// merkle tree would find its keys rewritten under it.
type callerKeys struct{ buf [8]byte }

func (c *callerKeys) do(k string, f func(key []byte)) {
	f(append(c.buf[:0], k...))
	for i := range c.buf {
		c.buf[i] = '#'
	}
}

// checkReads compares every read the store offers with the model.
func checkReads(t *testing.T, s *State, n *naiveState, ck *callerKeys, key func(byte) string) {
	t.Helper()
	if s.Len() != len(n.cur) {
		t.Fatalf("Len = %d, model %d", s.Len(), len(n.cur))
	}
	for b := byte(0); b < 16; b++ {
		k := key(b)
		want, wantOK := n.cur[k]
		var got []byte
		var ok, has bool
		ck.do(k, func(b []byte) { got, ok = s.Get(b) })
		ck.do(k, func(b []byte) { has = s.Has(b) })
		if ok != wantOK || string(got) != want || has != wantOK {
			t.Fatalf("Get(%q) = %q, %v (Has %v), model %q, %v", k, got, ok, has, want, wantOK)
		}
	}
	for _, prefix := range []string{"", "a/", "b/", "c/"} {
		var got []string
		s.RangePrefix(prefix, func(k string, v []byte) bool {
			got = append(got, k+"="+string(v))
			return true
		})
		var want []string
		for _, k := range sortedKeys(n.cur) {
			if strings.HasPrefix(k, prefix) {
				want = append(want, k+"="+n.cur[k])
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("RangePrefix(%q) = %v, model %v", prefix, got, want)
		}
	}
}

// checkCommit runs after a Commit: the journal is spent and the version
// is the model's.
func checkCommit(t *testing.T, s *State, n *naiveState) {
	t.Helper()
	if len(s.journal) != 0 || s.txMark != 0 {
		t.Fatalf("journal not reset by Commit: %d entries, mark %d", len(s.journal), s.txMark)
	}
	if s.Version() != n.height {
		t.Fatalf("Version = %d, model %d", s.Version(), n.height)
	}
}

// checkLatest compares the latest committed height with the model's copy
// of it. Performance mode serves no proof. With full proofs every proof
// State serves there must equal the full rebuild's, for each key of the
// key space, the gap after it and both ends; a repeated membership proof
// is the one handed out before, and it still verifies; and the height
// below is refused. The fuzz loop calls it after each Commit, and at the
// end while the last block's writes are still open.
func checkLatest(t *testing.T, s *State, n *naiveState, fullProofs bool, key func(byte) string) {
	t.Helper()
	h := n.height
	if !fullProofs {
		if _, _, err := s.ProveMembership(h, []byte("a/k00")); err == nil {
			t.Fatal("performance mode served a proof")
		}
		return
	}
	if h == 0 {
		return
	}
	ref := merkle.NewTree(byteMap(n.latest))
	checkProof(t, s, ref, h, "a")
	checkProof(t, s, ref, h, "z")
	for b := byte(0); b < 16; b++ {
		checkProof(t, s, ref, h, key(b))
		checkProof(t, s, ref, h, key(b)+"!")
		_, first, _ := s.ProveMembership(h, []byte(key(b)))
		v, again, _ := s.ProveMembership(h, []byte(key(b)))
		if again != first {
			t.Fatalf("height %d key %q: a repeated proof is a new one", h, key(b))
		}
		if again != nil {
			if err := merkle.VerifyMembership(ref.Root(), []byte(key(b)), v, again); err != nil {
				t.Fatalf("height %d key %q: repeated proof: %v", h, key(b), err)
			}
		}
	}
	if _, _, err := s.ProveMembership(h-1, []byte(key(0))); err == nil {
		t.Fatalf("height %d served a proof at %d", h, h-1)
	}
}

// checkProof compares the proofs State serves for k at height h with
// those of ref, the full rebuild of h's map: a present key's membership
// proof, or an absent key's non-membership proof, must be deeply equal
// and verify against ref's root, and the other kind must be nil.
func checkProof(t *testing.T, s *State, ref *merkle.Tree, h int64, k string) {
	t.Helper()
	v, mp, err := s.ProveMembership(h, []byte(k))
	if err != nil {
		t.Fatalf("ProveMembership(%d, %q) at version %d: %v", h, k, s.Version(), err)
	}
	nm, err := s.ProveNonMembership(h, []byte(k))
	if err != nil {
		t.Fatalf("ProveNonMembership(%d, %q) at version %d: %v", h, k, s.Version(), err)
	}
	wantV, wantMP, present := ref.ProveMembership([]byte(k))
	wantNM, _ := ref.ProveNonMembership([]byte(k))
	if !bytes.Equal(v, wantV) || !reflect.DeepEqual(mp, wantMP) || !reflect.DeepEqual(nm, wantNM) {
		t.Fatalf("height %d key %q: value %q membership %+v non-membership %+v; full rebuild %q %+v %+v",
			h, k, v, mp, nm, wantV, wantMP, wantNM)
	}
	if present {
		err = merkle.VerifyMembership(ref.Root(), []byte(k), v, mp)
	} else {
		err = merkle.VerifyNonMembership(ref.Root(), []byte(k), nm)
	}
	if err != nil {
		t.Fatalf("height %d key %q (present %v): %v", h, k, present, err)
	}
}

// A read makes no string and a write makes one only when it inserts a
// key: the map's own string is what the journal records for every later
// write, and what AbortTx puts back.
func TestStateKeyAllocs(t *testing.T) {
	for _, fullProofs := range []bool{false, true} {
		s := NewState(fullProofs)
		s.Set([]byte("present"), []byte("v"))
		s.CommitTx()
		present, absent, v := []byte("present"), []byte("absent"), []byte("w")
		for _, c := range []struct {
			name string
			want float64
			f    func()
		}{
			{"Get of a present key", 0, func() { s.Get(present) }},
			{"Get of an absent key", 0, func() { s.Get(absent) }},
			{"Has of a present key", 0, func() { s.Has(present) }},
			{"Has of an absent key", 0, func() { s.Has(absent) }},
			// AbortTx keeps the journal at one entry and the map at one key.
			{"Set of an existing key", 0, func() { s.Set(present, v); s.AbortTx() }},
			{"Delete of an existing key", 0, func() { s.Delete(present); s.AbortTx() }},
			{"Set of a new key", 1, func() { s.Set(absent, v); s.AbortTx() }},
		} {
			if got := testing.AllocsPerRun(100, c.f); got != c.want {
				t.Errorf("fullProofs=%v: %s took %.0f allocations, want %.0f", fullProofs, c.name, got, c.want)
			}
		}
	}
}
