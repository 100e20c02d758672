package app

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ibcbench/internal/merkle"
)

// naiveState is the reference FuzzStateJournal diffs State against: no
// journal, no marks, no tables. Each key holds a cell: its bytes, and
// the decoded value a typed write stored beside them (nil after a plain
// one). A transaction is a full copy of the map,
// the latest height is another, and the non-proof root is the hash chain
// over the block's
// written keys: every key a committed transaction wrote, changed or not,
// string keys in key order, then packet records by table prefix and
// numeric sequence, each table's prefix hashed once before its records'
// sequences. Whether a write is a string key or a record is the method
// it went through, so the model is told (write). The proof root is a
// full merkle.NewTree rebuild over the string keys plus, for each table
// with a committed write, its prefix bound to the root of
// merkle.HashLeaves over its dense leaf array, from sequence 0 to the
// highest one a committed write touched (tableLeaves).
type naiveState struct {
	cur       map[string]cell   // what reads see, in-tx writes included
	committed map[string]cell   // cur as of the last CommitTx/AbortTx/Commit
	txDirty   map[string]bool   // key -> whether it was written as a record
	dirty     map[string]bool   // the block's string keys written
	dirtyRecs map[string]bool   // the block's records written
	height    int64             // the latest committed height
	latest    map[string]cell   // the map at that height
	tables    map[string]uint64 // table prefix -> the highest sequence a committed block wrote
	root      merkle.Hash
}

func newNaiveState() *naiveState {
	return &naiveState{
		cur:       map[string]cell{},
		committed: map[string]cell{},
		txDirty:   map[string]bool{},
		dirty:     map[string]bool{},
		dirtyRecs: map[string]bool{},
		tables:    map[string]uint64{},
		root:      sha256.Sum256([]byte("ibcbench/genesis")),
	}
}

// cell is one key's entry in naiveState: its bytes, and the decoded
// value stored beside them.
type cell struct {
	val string
	obj any
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

// sortedRecords orders record keys as the store does: by prefix (up to
// the last '/'), then by the sequence after it as a number.
func sortedRecords(m map[string]bool) []string {
	keys := sortedKeys(m)
	slices.SortFunc(keys, func(a, b string) int {
		pa, sa := splitRecord(a)
		pb, sb := splitRecord(b)
		return cmp.Or(strings.Compare(pa, pb), cmp.Compare(sa, sb))
	})
	return keys
}

// write marks k written in the open transaction, as a record or a string
// key.
func (n *naiveState) write(k string, record bool) {
	if record {
		n.txDirty["\x00"+k] = true
	} else {
		n.txDirty[k] = true
	}
}

func (n *naiveState) set(k string, c cell, record bool) { n.cur[k] = c; n.write(k, record) }
func (n *naiveState) del(k string, record bool)         { delete(n.cur, k); n.write(k, record) }

func (n *naiveState) commitTx() {
	n.committed = maps.Clone(n.cur)
	for k := range n.txDirty {
		if r, ok := strings.CutPrefix(k, "\x00"); ok {
			n.dirtyRecs[r] = true
		} else {
			n.dirty[k] = true
		}
	}
	n.txDirty = map[string]bool{}
}

func (n *naiveState) abortTx() {
	n.cur = maps.Clone(n.committed)
	n.txDirty = map[string]bool{}
}

// written lists the block's writes as the store's Written does, each
// with its key and whether it was left deleted.
func (n *naiveState) written() []string {
	var out []string
	for _, k := range append(sortedKeys(n.dirty), sortedRecords(n.dirtyRecs)...) {
		_, ok := n.cur[k]
		out = append(out, fmt.Sprintf("%s deleted=%v", k, !ok))
	}
	return out
}

func (n *naiveState) commit(height int64, fullProofs bool) {
	n.abortTx()
	for k := range n.dirtyRecs { // order-free: a max per table
		prefix, seq := splitRecord(k)
		if hi, ok := n.tables[prefix]; !ok || seq > hi {
			n.tables[prefix] = seq
		}
	}
	if fullProofs {
		n.root = n.tree(n.cur).Root()
	} else {
		h := sha256.New()
		h.Write(n.root[:])
		var be [8]byte
		binary.BigEndian.PutUint64(be[:], uint64(height))
		h.Write(be[:])
		prev := ""
		for _, k := range append(sortedKeys(n.dirty), sortedRecords(n.dirtyRecs)...) {
			if n.dirtyRecs[k] {
				// A record: its table's prefix once, then its sequence.
				prefix, seq := splitRecord(k)
				if prefix != prev {
					h.Write([]byte(prefix))
				}
				binary.BigEndian.PutUint64(be[:], seq)
				h.Write(be[:])
				prev = prefix
			} else {
				h.Write([]byte(k))
			}
			if c, ok := n.cur[k]; ok {
				h.Write([]byte(c.val))
			} else {
				h.Write([]byte{0xff})
			}
		}
		copy(n.root[:], h.Sum(nil))
	}
	n.height, n.latest = height, maps.Clone(n.cur)
	n.dirty, n.dirtyRecs = map[string]bool{}, map[string]bool{}
}

// splitRecord splits record key k into its table's prefix and sequence.
func splitRecord(k string) (string, uint64) {
	i := strings.LastIndexByte(k, '/') + 1
	seq, _ := strconv.ParseUint(k[i:], 10, 64)
	return k[:i], seq
}

// tree rebuilds the full-proof tree of map m: its string keys, and each
// table's prefix bound to its array's depth and root.
func (n *naiveState) tree(m map[string]cell) *merkle.Tree {
	kv := map[string][]byte{}
	for k, c := range m { // order-free: fills a map
		if _, _, record := fuzzRecords(nil, k); !record {
			kv[k] = []byte(c.val)
		}
	}
	for prefix := range n.tables { // order-free: fills a map
		leaves := n.tableLeaves(m, prefix)
		depth := 0
		for 1<<depth < len(leaves) {
			depth++
		}
		kv[prefix] = merkle.AppendArrayValue(nil, depth, merkle.HashLeaves(leaves))
	}
	return merkle.NewTree(kv)
}

// tableLeaves is the dense leaf array of the table under prefix in map
// m: the record's leaf at each stored sequence, the empty leaf elsewhere.
func (n *naiveState) tableLeaves(m map[string]cell, prefix string) []merkle.Hash {
	leaves := make([]merkle.Hash, n.tables[prefix]+1)
	for seq := range leaves {
		leaves[seq] = merkle.EmptyLeaf()
		if c, ok := m[prefix+strconv.Itoa(seq)]; ok {
			leaves[seq] = merkle.ArrayLeafHash(uint64(seq), []byte(c.val))
		}
	}
	return leaves
}

// The fuzzed key space: eight string keys under two prefixes, and eight
// packet records, four sequences in each of two tables. The sequences
// straddle 64-row words, and 130 before 1 makes a table grow downwards.
var recordSeqs = [4]uint64{1, 2, 70, 130}

func fuzzKey(b byte) string {
	if b%16 < 8 {
		return fmt.Sprintf("%c/k%02d", 'a'+b%2, b%16)
	}
	return fmt.Sprintf("r/t%d/%d", b%2, recordSeqs[(b%16-8)/2])
}

// fuzzRecords returns the table of record key k and its sequence, the
// prefix built in buf as the keeper builds it.
func fuzzRecords(buf []byte, k string) (Records, uint64, bool) {
	prefix, num, ok := strings.Cut(k, "t")
	if !ok || prefix != "r/" {
		return Records{}, 0, false
	}
	seq, _ := strconv.ParseUint(num[2:], 10, 64)
	return Records{Kind: Receipt + RecordKind(num[0]-'0'), Channel: "t" + num[:1], Prefix: append(buf, k[:len("r/t0/")]...)}, seq, true
}

// FuzzStateJournal drives one State per mode and the naive model with
// operations decoded from the input, read in (op, key) pairs: op%8 == 0
// commits the block, 1 commits the transaction, 2 aborts it, 3 deletes
// (often an absent key), 4 sets the key to the value it already has, 5
// sets a value every key shares (a fresh slice of equal bytes), the rest
// set a fresh value; 7 writes a string key typed (SetObject), with a
// fresh decoded value beside it, whose identity every read of the key
// checks until a plain write drops it. The 16-key space makes the same key being written
// many times per transaction and per block, and re-creation after a
// delete, routine. A packet record is written through SetRecord or
// DeleteRecord, the only way to it. Every key reaches the store
// through one reused buffer that is scribbled over after each call
// (callerKeys), so a store keeping caller key bytes anywhere diverges
// from the model.
func FuzzStateJournal(f *testing.F) {
	f.Add([]byte{5, 1, 5, 2, 1, 0, 0, 0, 5, 1, 3, 2, 5, 9, 2, 0, 0, 0})             // commit, then an aborted overwrite/delete/create
	f.Add([]byte{5, 3, 1, 0, 5, 3, 3, 3, 5, 3, 3, 7, 2, 0, 4, 3, 1, 0, 0, 0})       // abort after a committed tx in the same block; equal-value set
	f.Add([]byte{3, 4, 1, 0, 0, 0, 0, 0, 5, 4, 0, 0, 3, 4, 5, 4, 3, 4, 1, 0, 0, 0}) // delete of an absent key dirties it; empty block; uncommitted write dropped by Commit
	f.Add([]byte{5, 0, 6, 0, 7, 0, 1, 0, 5, 0, 1, 0, 0, 0, 6, 8, 0, 0, 7, 8, 1, 0, 0, 0, 3, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	// Records: shared values, then a fresh one; deleted, aborted, re-made.
	f.Add([]byte{5, 8, 5, 10, 5, 14, 1, 0, 0, 0, 6, 12, 5, 24, 1, 0, 0, 0, 3, 26, 3, 9, 2, 0, 3, 24, 1, 0, 0, 0, 5, 8, 1, 0, 0, 0})
	// Typed writes: one undone by AbortTx, one dropped by a plain Set of
	// equal bytes, a delete of one undone, and one committed.
	f.Add([]byte{7, 0, 1, 0, 7, 0, 2, 0, 4, 0, 7, 2, 0, 0, 3, 2, 2, 0, 7, 0, 1, 0, 0, 0})
	// A table made by a delete at sequence 130 grows down to 1.
	f.Add([]byte{3, 15, 1, 0, 6, 15, 6, 9, 1, 0, 0, 0, 7, 13, 4, 15, 1, 0, 0, 0, 3, 31, 2, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fullProofs := range []bool{false, true} {
			s, n, ck := NewState(fullProofs), newNaiveState(), &callerKeys{}
			height := int64(0)
			for i := 0; i+1 < len(data); i += 2 {
				op, k := data[i]%8, fuzzKey(data[i+1])
				var value []byte
				var obj any
				switch op {
				case 0:
					height++
					n.abortTx() // Commit drops the open transaction first
					written := n.written()
					n.commit(height, fullProofs)
					if got := s.Commit(height); got != n.root {
						t.Fatalf("fullProofs=%v height %d: root %x, model %x", fullProofs, height, got, n.root)
					}
					var got []string
					for _, w := range s.Written() {
						got = append(got, fmt.Sprintf("%s deleted=%v", w.AppendKey(nil), w.Deleted))
					}
					if !slices.Equal(got, written) {
						t.Fatalf("fullProofs=%v height %d: Written %q, model %q", fullProofs, height, got, written)
					}
					checkCommit(t, s, n)
					checkLatest(t, s, n, fullProofs)
				case 1:
					s.CommitTx()
					n.commitTx()
				case 2:
					s.AbortTx()
					n.abortTx()
				case 4:
					c, ok := n.cur[k]
					if !ok {
						break
					}
					value = []byte(c.val)
				case 5:
					value = []byte("s")
				case 7:
					obj = new(int) // compared by identity
					fallthrough
				default:
					value = []byte(fmt.Sprintf("v%d", i))
				}
				if op < 3 || op == 4 && value == nil {
					checkReads(t, s, n, ck)
					continue
				}
				_, seq, record := fuzzRecords(nil, k)
				switch {
				case !record && op == 3:
					ck.do(k, s.Delete)
					n.del(k, false)
				case !record && obj != nil:
					ck.do(k, func(b []byte) { s.SetObject(b, value, obj) })
					n.set(k, cell{string(value), obj}, false)
				case !record:
					ck.do(k, func(b []byte) { s.Set(b, value) })
					n.set(k, cell{val: string(value)}, false)
				case op == 3:
					ck.do(k, func(b []byte) {
						r, _, _ := fuzzRecords(b[:0], k)
						s.DeleteRecord(&r, seq)
					})
					n.del(k, true)
				default:
					ck.do(k, func(b []byte) {
						r, _, _ := fuzzRecords(b[:0], k)
						s.SetRecord(&r, seq, value)
					})
					n.set(k, cell{val: string(value)}, true)
				}
				checkReads(t, s, n, ck)
			}
			checkLatest(t, s, n, fullProofs)
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

// checkReads compares every read the store offers with the model: Get
// and Object for the string keys, GetRecord and HasRecord for the
// records. A record is invisible to Get and Object of its key, and
// RangePrefix visits string keys only.
func checkReads(t *testing.T, s *State, n *naiveState, ck *callerKeys) {
	t.Helper()
	if s.Len() != len(n.cur) {
		t.Fatalf("Len = %d, model %d", s.Len(), len(n.cur))
	}
	for b := byte(0); b < 16; b++ {
		k := fuzzKey(b)
		c, wantOK := n.cur[k]
		want := c.val
		var got []byte
		var ok bool
		var obj any
		ck.do(k, func(b []byte) { got, ok = s.Get(b); obj = s.Object(b) })
		_, seq, record := fuzzRecords(nil, k)
		if record && (ok || obj != nil) {
			t.Fatalf("Get(%q) = %q, %v, Object %v: a record read as a string key", k, got, ok, obj)
		}
		if !record && (ok != wantOK || string(got) != want) {
			t.Fatalf("Get(%q) = %q, %v, model %q, %v", k, got, ok, want, wantOK)
		}
		if !record && obj != c.obj {
			t.Fatalf("Object(%q) = %v, model %v", k, obj, c.obj)
		}
		if !record {
			continue
		}
		var has bool
		ck.do(k, func(b []byte) {
			r, _, _ := fuzzRecords(b[:0], k)
			got, ok = s.GetRecord(&r, seq)
			has = s.HasRecord(&r, seq)
		})
		if ok != wantOK || string(got) != want || has != wantOK {
			t.Fatalf("GetRecord(%q) = %q, %v (HasRecord %v), model %q, %v", k, got, ok, has, want, wantOK)
		}
	}
	for _, prefix := range []string{"", "a/", "b/", "c/", "r/"} {
		var got []string
		s.RangePrefix(prefix, func(k string, v []byte) bool {
			got = append(got, k+"="+string(v))
			return true
		})
		var want []string
		for _, k := range sortedKeys(n.cur) {
			if strings.HasPrefix(k, prefix) && !strings.HasPrefix(k, "r/") {
				want = append(want, k+"="+n.cur[k].val)
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
// of a string key State serves there must equal the full rebuild's, for
// each string key of the key space, the gap after it, both ends and each
// table's leaf; each record and an absent sequence beyond every table's
// capacity get record proofs (checkRecord); a repeated membership proof
// is the one handed out before, and it still verifies; and the height
// below is refused. The fuzz loop calls it after each Commit, and at the
// end while the last block's writes are still open.
func checkLatest(t *testing.T, s *State, n *naiveState, fullProofs bool) {
	t.Helper()
	h := n.height
	if !fullProofs {
		if _, _, err := proveKey(s, h, []byte("a/k00")); err == nil {
			t.Fatal("performance mode served a proof")
		}
		r, seq, _ := fuzzRecords(nil, fuzzKey(8))
		if _, _, err := s.ProveRecord(h, &r, seq); err == nil {
			t.Fatal("performance mode served a record proof")
		}
		return
	}
	if h == 0 {
		return
	}
	ref := n.tree(n.latest)
	for _, k := range []string{"a", "z", "r/t0/", "r/t1/"} {
		checkProof(t, s, ref, h, k)
	}
	for b := byte(0); b < 16; b++ {
		k := fuzzKey(b)
		if _, _, record := fuzzRecords(nil, k); record {
			checkRecord(t, s, n, ref, h, k)
			continue
		}
		checkProof(t, s, ref, h, k)
		checkProof(t, s, ref, h, k+"!")
		_, first, _ := proveKey(s, h, []byte(k))
		v, again, _ := proveKey(s, h, []byte(k))
		if again != first {
			t.Fatalf("height %d key %q: a repeated proof is a new one", h, k)
		}
		if again != nil {
			if err := merkle.VerifyMembership(ref.Root(), []byte(k), v, again); err != nil {
				t.Fatalf("height %d key %q: repeated proof: %v", h, k, err)
			}
		}
	}
	checkRecord(t, s, n, ref, h, "r/t0/1000")
	checkRecord(t, s, n, ref, h, "r/t1/1000")
	if _, _, err := proveKey(s, h-1, []byte(fuzzKey(0))); err == nil {
		t.Fatalf("height %d served a proof at %d", h, h-1)
	}
}

// checkRecord compares the record proofs State serves for record key k
// at height h with the model: a stored record's proof carries its value
// and verifies, a repeated one is the one handed out before, and neither
// it nor the absence proof's verdict holds for the other kind; either
// proof's table leaf (or its absence) and array depth and root are the
// full rebuild's.
func checkRecord(t *testing.T, s *State, n *naiveState, ref *merkle.Tree, h int64, k string) {
	t.Helper()
	r, seq, _ := fuzzRecords(nil, k)
	prefix := string(r.Prefix)
	v, mp, err := s.ProveRecord(h, &r, seq)
	if err != nil {
		t.Fatalf("ProveRecord(%d, %q) at version %d: %v", h, k, s.Version(), err)
	}
	nm, err := s.ProveRecordAbsent(h, &r, seq)
	if err != nil {
		t.Fatalf("ProveRecordAbsent(%d, %q) at version %d: %v", h, k, s.Version(), err)
	}
	c, present := n.latest[k]
	want := c.val
	p := nm
	if present {
		p = mp
		if nm != nil || mp == nil || string(v) != want {
			t.Fatalf("height %d record %q: value %q proof %v absence %v, model %q", h, k, v, mp, nm, want)
		}
		if err := merkle.VerifyRecord(ref.Root(), r.Prefix, seq, v, mp); err != nil {
			t.Fatalf("height %d record %q: %v", h, k, err)
		}
		if merkle.VerifyRecordAbsent(ref.Root(), r.Prefix, seq, mp) == nil {
			t.Fatalf("height %d record %q: its membership proof verifies its absence", h, k)
		}
		if _, again, _ := s.ProveRecord(h, &r, seq); again != mp {
			t.Fatalf("height %d record %q: a repeated proof is a new one", h, k)
		}
	} else {
		if mp != nil || nm == nil {
			t.Fatalf("height %d absent record %q: proof %v absence %v", h, k, mp, nm)
		}
		if err := merkle.VerifyRecordAbsent(ref.Root(), r.Prefix, seq, nm); err != nil {
			t.Fatalf("height %d absent record %q: %v", h, k, err)
		}
		if merkle.VerifyRecord(ref.Root(), r.Prefix, seq, nil, nm) == nil {
			t.Fatalf("height %d absent record %q: its absence proof verifies a value", h, k)
		}
	}
	if _, ok := n.tables[prefix]; !ok {
		if wantNM, _ := ref.ProveNonMembership(r.Prefix); !present && !reflect.DeepEqual(p.NoTable, wantNM) {
			t.Fatalf("height %d record %q of no table: %+v, full rebuild %+v", h, k, p.NoTable, wantNM)
		}
		return
	}
	_, wantTop, _ := ref.ProveMembership(r.Prefix)
	leaves := n.tableLeaves(n.latest, prefix)
	if p.NoTable != nil || !reflect.DeepEqual(p.Table, wantTop) || p.Root != merkle.HashLeaves(leaves) || 1<<p.Depth < len(leaves) || 1<<p.Depth >= 2*len(leaves) {
		t.Fatalf("height %d record %q: table proof %+v depth %d root %x; full rebuild %+v over %d leaves, root %x",
			h, k, p.Table, p.Depth, p.Root, wantTop, len(leaves), merkle.HashLeaves(leaves))
	}
}

// checkProof compares the proofs State serves for string key k at
// height h with those of ref, the full rebuild of h's map: a present
// key's membership proof, or an absent key's non-membership proof, must
// be deeply equal and verify against ref's root, and the other kind must
// be nil.
func checkProof(t *testing.T, s *State, ref *merkle.Tree, h int64, k string) {
	t.Helper()
	v, mp, err := proveKey(s, h, []byte(k))
	if err != nil {
		t.Fatalf("ProveMembership(%d, %q) at version %d: %v", h, k, s.Version(), err)
	}
	nm, err := proveKeyAbsent(s, h, []byte(k))
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
// write, and what AbortTx puts back. A packet record makes none: not on
// insert, and not when its block commits either.
func TestStateKeyAllocs(t *testing.T) {
	for _, fullProofs := range []bool{false, true} {
		s := NewState(fullProofs)
		s.Set([]byte("present"), []byte("v"))
		s.CommitTx()
		present, absent, v := []byte("present"), []byte("absent"), []byte("w")
		var b [KeyBufLen]byte
		recs := func() Records {
			return Records{Kind: Commitment, Channel: "channel-0", Prefix: append(b[:0], "commitments/channel-0/"...)}
		}
		r := recs()
		s.SetRecord(&r, 1, v)
		bank := NewBank(s)
		bank.Mint("alice", Coin{Denom: "uatom", Amount: 1})
		s.CommitTx()
		for _, c := range []struct {
			name string
			want float64
			f    func()
		}{
			{"Get of a present key", 0, func() { s.Get(present) }},
			{"Get of an absent key", 0, func() { s.Get(absent) }},
			// AbortTx keeps the journal at one entry and the map at one key.
			{"Set of an existing key", 0, func() { s.Set(present, v); s.AbortTx() }},
			{"Delete of an existing key", 0, func() { s.Delete(present); s.AbortTx() }},
			{"Set of a new key", 1, func() { s.Set(absent, v); s.AbortTx() }},
			{"GetRecord of a present record", 0, func() { r := recs(); s.GetRecord(&r, 1) }},
			{"GetRecord of an absent record", 0, func() { r := recs(); s.GetRecord(&r, 2) }},
			{"HasRecord of a present record", 0, func() { r := recs(); s.HasRecord(&r, 1) }},
			{"HasRecord of an absent record", 0, func() { r := recs(); s.HasRecord(&r, 2) }},
			{"SetRecord of a new record", 0, func() { r := recs(); s.SetRecord(&r, 2, v); s.AbortTx() }},
			{"DeleteRecord of a present record", 0, func() { r := recs(); s.DeleteRecord(&r, 1); s.AbortTx() }},
			// A balance and the supply, each value cut from the bank's
			// chunk: a new chunk every 64 writes.
			{"Bank write of an existing balance", 0, func() { bank.Mint("alice", Coin{Denom: "uatom", Amount: 1}); s.AbortTx() }},
		} {
			if got := testing.AllocsPerRun(100, c.f); got != c.want {
				t.Errorf("fullProofs=%v: %s took %.0f allocations, want %.0f", fullProofs, c.name, got, c.want)
			}
		}
		// The journal, the written set, the hashed bytes and the edit
		// lists are reused, and a table leaf's value is cut from a chunk.
		height := s.Version()
		commit := func() { r := recs(); s.SetRecord(&r, 2, v); s.CommitTx(); height++; s.Commit(height) }
		if got := testing.AllocsPerRun(100, commit); got != 0 {
			t.Errorf("fullProofs=%v: a block writing a record committed with %.0f allocations, want 0", fullProofs, got)
		}
	}
}
