package app

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"maps"
	"sort"
	"strings"
	"testing"

	"ibcbench/internal/merkle"
)

// naiveState is the reference FuzzStateJournal diffs State against: no
// journal, no marks. A transaction is a full copy of the map, a height is
// another, the proof root is a full merkle.NewTree rebuild and the
// non-proof root is the hash chain over the block's dirty keys as the
// store defined it when it kept a map of them: every key a committed
// transaction wrote, changed or not.
type naiveState struct {
	cur       map[string]string // what reads see, in-tx writes included
	committed map[string]string // cur as of the last CommitTx/AbortTx/Commit
	txDirty   map[string]bool
	dirty     map[string]bool     // the block's dirty keys
	heights   []map[string]string // heights[h-1] = the map at height h
	roots     []merkle.Hash
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
	n.heights = append(n.heights, maps.Clone(n.cur))
	n.roots = append(n.roots, n.root)
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
					dirtyKeys := len(n.dirty)
					n.commit(height, fullProofs)
					if got := s.Commit(height); got != n.root {
						t.Fatalf("fullProofs=%v height %d: root %x, model %x", fullProofs, height, got, n.root)
					}
					checkCommit(t, s, n, fullProofs, dirtyKeys)
					checkHistory(t, s, n, fullProofs, max(1, height-7))
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
			checkHistory(t, s, n, fullProofs, 1)
		}
	})
}

// callerKeys hands the store each key in one reused buffer and scribbles
// over the buffer after the call, as a caller building its keys on the
// stack does: a store that kept those bytes in its map, journal or
// full-proof archive would find its keys rewritten under it.
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

// checkCommit runs after a Commit: the journal is spent and the new
// commit record holds what the mode promises — one archived entry per
// dirty key with full proofs, no history at all without.
func checkCommit(t *testing.T, s *State, n *naiveState, fullProofs bool, dirtyKeys int) {
	t.Helper()
	if len(s.journal) != 0 || s.txMark != 0 {
		t.Fatalf("journal not reset by Commit: %d entries, mark %d", len(s.journal), s.txMark)
	}
	if s.Version() != int64(len(n.heights)) {
		t.Fatalf("Version = %d, model %d", s.Version(), len(n.heights))
	}
	last := s.commits[len(s.commits)-1]
	if !fullProofs {
		for _, c := range s.commits {
			if c.prior != nil {
				t.Fatalf("non-proof commit record of height %d holds history: %+v", c.height, c.prior)
			}
		}
		if _, err := s.TreeAt(last.height); err == nil {
			t.Fatal("performance mode served a proof tree")
		}
	} else if len(last.prior) != dirtyKeys || cap(last.prior) != dirtyKeys {
		t.Fatalf("height %d archived %d entries (cap %d) for %d dirty keys",
			last.height, len(last.prior), cap(last.prior), dirtyKeys)
	}
}

// checkHistory compares every height from `from` up with the model's copy
// of it: the root, and with full proofs the tree TreeAt serves (from its
// ring, the live tree or a rollback + rebuild) and a proof of a live key.
// The fuzz loop calls it for the recent heights after each Commit and for
// all of them at the end, which keeps one input's cost linear.
func checkHistory(t *testing.T, s *State, n *naiveState, fullProofs bool, from int64) {
	t.Helper()
	for h := from; h <= int64(len(n.heights)); h++ {
		if got, err := s.RootAt(h); err != nil || got != n.roots[h-1] {
			t.Fatalf("RootAt(%d) = %x, %v, model %x", h, got, err, n.roots[h-1])
		}
		if !fullProofs {
			continue
		}
		tree, err := s.TreeAt(h)
		if err != nil {
			t.Fatalf("TreeAt(%d) at version %d: %v", h, s.Version(), err)
		}
		model := n.heights[h-1]
		if want := merkle.NewTree(byteMap(model)); tree.Root() != want.Root() || tree.Len() != len(model) {
			t.Fatalf("TreeAt(%d): root %x over %d keys, model %x over %d", h, tree.Root(), tree.Len(), want.Root(), len(model))
		}
		if keys := sortedKeys(model); len(keys) > 0 {
			k := keys[int(h)%len(keys)]
			v, p, ok := tree.ProveMembership(k)
			if !ok || string(v) != model[k] {
				t.Fatalf("TreeAt(%d) key %q: ok=%v value %q, model %q", h, k, ok, v, model[k])
			}
			if err := merkle.VerifyMembership(n.roots[h-1], []byte(k), v, p); err != nil {
				t.Fatalf("TreeAt(%d) membership of %q: %v", h, k, err)
			}
		}
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
