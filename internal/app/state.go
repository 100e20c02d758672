package app

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"

	"ibcbench/internal/merkle"
)

// State is the application's versioned key-value store.
//
// Keys are bytes the store copies, so a caller may build every key in one
// reused buffer (see KeyBufLen). The store keeps two kinds of key:
//
//   - Packet records: a packet's commitment, receipt and acknowledgement.
//     By ICS-24 each is a pure function of (kind, port, channel,
//     sequence), and a channel's sequences are dense, so each kind on each
//     channel end is a table indexed by sequence (see Records), made on
//     its first SetRecord or DeleteRecord. A record's key is its table's
//     prefix followed by the sequence in decimal; the store knows nothing
//     else of the layout. A record write makes no string and no map
//     entry, and no commit spells its key out: the full-proof tree and
//     the performance-mode commit hash both take the table's prefix and
//     the sequence instead.
//   - Every other key (balances, supply, clients, connections, channel
//     ends, nextSequenceSend, middleware records): a flat string map. A
//     lookup makes no string, and only the first insert of a key makes the
//     one string its map entry and journal entries share. A typed write
//     (SetObject) keeps a decoded value beside the bytes, which Object
//     returns; Set and Delete drop it. The store never looks inside the
//     value: the bytes alone are hashed and proved.
//
// Records are reached only through their tables (SetRecord,
// DeleteRecord, GetRecord, HasRecord); Get, Set and Delete reach the
// string map only, so a record is invisible to Get of its key. Values
// the store owns (see Set and Get).
//
// Every write goes straight into the map or a table, leaving one undo
// entry on the block's journal. A transaction is a mark on that journal:
// committing it moves the mark, aborting it undoes the entries above the
// mark. Proofs are served at one height, the latest committed one, from
// the live merkle tree in place: the executing block writes only the
// store and the journal until Commit. No older height is kept, so a
// request for one is an error.
//
// The full-proof root has two levels. Each table commits to a
// merkle.ArrayTree indexed by sequence, made on its first committed
// write; the root is that of a merkle.IncTree over the string keys plus
// one leaf per such table, keyed by its prefix, whose value binds the
// array's depth and root (merkle.AppendArrayValue). A record's proof is
// its array path plus that leaf's proof (ProveRecord). A state with no
// tables has the root of its string keys alone, as before the tables.
// The performance-mode root chains each
// block's written string keys in key order, then its records by table
// prefix and sequence, each table's prefix once and each sequence as 8
// bytes (see Commit). That moved the root once, when the records left
// the string map.
type State struct {
	data map[string]slot

	// tables holds the packet-record tables by prefix, made on first
	// write.
	tables map[string]*table

	// journal holds one entry per write since the last Commit, oldest
	// first; entries below txMark belong to committed transactions. It is
	// the only record of prior values: AbortTx and the block's written
	// set are both read from it.
	journal []undo
	txMark  int
	// objs holds the decoded values the journal's entries replaced, one
	// per entry with obj set, oldest first: few writes are typed, so an
	// entry carries a flag, not the value.
	objs []any

	version int64 // the latest committed height (0 if none)
	root    merkle.Hash

	// fullProofs selects real merkle roots and proofs; when false the
	// root is a cheap running hash chain and proofs are placeholders
	// (see Config.FullProofs in the chain package).
	fullProofs bool

	// live is the incrementally-maintained merkle tree over the committed
	// string keys and table leaves (full-proof mode only): Commit folds
	// the block's written keys and tables into it instead of rebuilding
	// the whole tree each height.
	live *merkle.IncTree

	// proofs holds the record proofs handed out since the last Commit
	// that changed the root (full-proof mode only).
	proofs map[recordAt]*merkle.RecordProof
	// vals is the chunk the table leaves' values are cut from, and
	// recordProofs and paths the chunks of the record proofs handed out.
	vals         Chunk[byte]
	recordProofs Chunk[merkle.RecordProof]
	paths        Chunk[merkle.PathStep]

	hashBuf []byte             // the bytes a non-proof Commit hashes, reused
	keyBuf  []string           // the block's written string keys, reused
	tabBuf  []*table           // the block's written tables, reused
	written []Write            // the last block's writes (Written), reused
	edits   []merkle.Edit      // the block's edits in a full-proof Commit, reused
	arrBuf  []merkle.ArrayEdit // one table's edits in a full-proof Commit, reused
}

// recordAt names record seq of table t.
type recordAt struct {
	t   *table
	seq uint64
}

// slot is one map entry: the value, the decoded value a typed write
// stored beside it (nil after Set), and the key string every later write
// of the key records in the journal.
type slot struct {
	key string
	val []byte
	obj any
}

// KeyBufLen sizes the stack buffer callers build a state key in; the
// simulator's keys are about 60 bytes, and a longer one only costs the
// append an allocation.
const KeyBufLen = 128

// undo is what one write replaced: the value before it (had = false when
// absent), of string key key, or of record seq of table t. obj is set
// when that value had a decoded value beside it, kept in State.objs.
type undo struct {
	key   string
	t     *table
	seq   uint64
	prior []byte
	had   bool
	obj   bool
}

// RecordKind is the kind of a packet record table.
type RecordKind uint8

const (
	NoRecord RecordKind = iota // a string key
	Commitment
	Receipt
	Ack
)

// Records names the table of one kind of packet record on one channel
// end. Prefix, every record's key up to its sequence, ends in '/' and is
// the table's identity: a caller builds it in a stack buffer for each
// call, and the store copies it, with Channel, only when it makes the
// table.
type Records struct {
	Kind    RecordKind
	Channel string
	Prefix  []byte
}

// table holds one kind of packet record on one channel end: bit i of
// present, and row i of vals and keys, are sequence base+i. A channel's
// sequences are dense, so the table is as long as the span of sequences
// written to it.
type table struct {
	kind    RecordKind
	channel string
	prefix  string
	base    uint64 // a multiple of 64
	present []uint64
	n       int // stored records

	// vals holds each row's value once two stored rows have held
	// different ones. Until then it is nil and every stored row holds
	// same: a table of receipts, or of success acks, is its presence bits.
	vals [][]byte
	same []byte

	// arr commits the table's committed records, under full proofs, made
	// by the first Commit that writes the table.
	arr *merkle.ArrayTree

	// written marks the rows the block being committed wrote, in words
	// lo to hi; Commit reads the marks back in sequence order and clears
	// them, so a block's records need no sort.
	written []uint64
	lo, hi  int
	marked  bool // some row is marked
}

// NewState returns an empty store.
func NewState(fullProofs bool) *State {
	s := &State{
		data:       make(map[string]slot),
		root:       sha256.Sum256([]byte("ibcbench/genesis")),
		fullProofs: fullProofs,
	}
	if fullProofs {
		s.live = merkle.NewIncTree()
	}
	return s
}

// Get reads a string key, observing the executing transaction's writes.
// The returned slice is the store's own: callers never write to it.
func (s *State) Get(key []byte) ([]byte, bool) {
	e, ok := s.data[string(key)]
	return e.val, ok
}

// Set writes a string key for the executing transaction. The store owns
// value from here on (it is kept by reference, here and in the journal),
// so the caller hands over a slice nothing else will write to. A packet
// record is written by SetRecord, never by its key.
func (s *State) Set(key, value []byte) { s.SetObject(key, value, nil) }

// SetObject writes a string key as Set does, with obj, the decoded form
// of value, beside it: Object returns obj until the key's next write.
// The store keeps obj as it keeps value, so nothing writes to it either.
func (s *State) SetObject(key, value []byte, obj any) {
	k := s.write(key)
	s.data[k] = slot{k, value, obj}
}

// Object reads the decoded value the latest write of a string key
// stored, as Get reads its bytes: nil when the key is absent or that
// write was a Set.
func (s *State) Object(key []byte) any { return s.data[string(key)].obj }

// Delete removes a string key for the executing transaction. Like a Set
// of an equal value, a Delete of an absent key still marks the key
// changed in this block.
func (s *State) Delete(key []byte) {
	k := s.write(key)
	delete(s.data, k)
}

// write journals what a write of string key replaces and returns the key
// as the store owns it (the map's string, or a copy made on first insert).
func (s *State) write(key []byte) string {
	e, had := s.data[string(key)]
	if !had {
		e.key = string(key)
	}
	if e.obj != nil {
		s.objs = append(s.objs, e.obj)
	}
	s.journal = append(s.journal, undo{key: e.key, prior: e.val, had: had, obj: e.obj != nil})
	return e.key
}

// SetRecord writes record seq of r's table, making the table on its
// first write. The value is the store's from here on, as with Set.
func (s *State) SetRecord(r *Records, seq uint64, value []byte) {
	t := s.tables[string(r.Prefix)]
	if t == nil {
		t = s.newTable(r)
	}
	s.setRow(t, seq, value)
}

// DeleteRecord removes record seq of r's table, as Delete does, making
// the table as SetRecord does.
func (s *State) DeleteRecord(r *Records, seq uint64) {
	t := s.tables[string(r.Prefix)]
	if t == nil {
		t = s.newTable(r)
	}
	s.deleteRow(t, seq)
}

// GetRecord reads record seq of r's table, as Get reads a string key.
func (s *State) GetRecord(r *Records, seq uint64) ([]byte, bool) {
	if t := s.tables[string(r.Prefix)]; t != nil {
		return t.lookup(seq)
	}
	return nil, false
}

// HasRecord reports whether record seq of r's table is stored.
func (s *State) HasRecord(r *Records, seq uint64) bool {
	_, ok := s.GetRecord(r, seq)
	return ok
}

// newTable makes r's table.
func (s *State) newTable(r *Records) *table {
	p := string(r.Prefix)
	if !strings.HasSuffix(p, "/") {
		panic(fmt.Sprintf("state: record prefix %q does not end in '/'", p))
	}
	if s.tables == nil {
		s.tables = make(map[string]*table)
	}
	t := &table{kind: r.Kind, channel: strings.Clone(r.Channel), prefix: p}
	s.tables[p] = t
	return t
}

// setRow journals and makes a record write.
func (s *State) setRow(t *table, seq uint64, v []byte) {
	i := t.grow(seq)
	prior, had := t.get(i)
	s.journal = append(s.journal, undo{t: t, seq: seq, prior: prior, had: had})
	t.set(i, v)
}

// deleteRow journals and makes a record delete. Like a write, it grows
// the table to hold seq: Commit marks the row written.
func (s *State) deleteRow(t *table, seq uint64) {
	i := t.grow(seq)
	prior, had := t.get(i)
	s.journal = append(s.journal, undo{t: t, seq: seq, prior: prior, had: had})
	t.clear(i)
}

// CommitTx keeps the writes of a successful transaction.
func (s *State) CommitTx() { s.txMark = len(s.journal) }

// AbortTx undoes the writes of a failed transaction, newest first.
func (s *State) AbortTx() {
	for i := len(s.journal) - 1; i >= s.txMark; i-- {
		switch e := &s.journal[i]; {
		case e.t == nil && e.had:
			var obj any
			if e.obj {
				obj, s.objs = s.objs[len(s.objs)-1], s.objs[:len(s.objs)-1]
			}
			s.data[e.key] = slot{e.key, e.prior, obj}
		case e.t == nil:
			delete(s.data, e.key)
		case e.had:
			e.t.set(int(e.seq-e.t.base), e.prior)
		default:
			e.t.clear(int(e.seq - e.t.base))
		}
	}
	s.journal = s.journal[:s.txMark]
}

// Write is one entry of Written: a string key, or a packet record, and
// whether the block left it deleted.
type Write struct {
	Key     string // the string key; "" for a record
	Seq     uint64 // the record's sequence
	Deleted bool
	t       *table
}

// Record reports a record's kind and channel; kind is NoRecord for a
// string key.
func (w *Write) Record() (kind RecordKind, channel string) {
	if w.t == nil {
		return NoRecord, ""
	}
	return w.t.kind, w.t.channel
}

// AppendKey appends the key written.
func (w *Write) AppendKey(dst []byte) []byte {
	if w.t == nil {
		return append(dst, w.Key...)
	}
	return strconv.AppendUint(append(dst, w.t.prefix...), w.Seq, 10)
}

// value is what the write left: the value, or ok = false when deleted.
func (s *State) value(w *Write) ([]byte, bool) {
	if w.t != nil {
		return w.t.lookup(w.Seq)
	}
	e, ok := s.data[w.Key]
	return e.val, ok
}

// Commit finalizes a block at the given height and returns the new root.
func (s *State) Commit(height int64) merkle.Hash {
	s.AbortTx()
	// The block's writes: every key and record a committed transaction
	// wrote, whether or not its value ended up different, string keys in
	// key order, then records by table prefix and sequence.
	keys, w, tabs := s.keyBuf[:0], s.written[:0], s.tabBuf[:0]
	for i := range s.journal {
		if e := &s.journal[i]; e.t == nil {
			keys = append(keys, e.key)
		} else if e.t.mark(int(e.seq - e.t.base)) {
			tabs = append(tabs, e.t)
		}
	}
	sort.Strings(keys)
	keys = slices.Compact(keys)
	for _, k := range keys {
		w = append(w, Write{Key: k})
	}
	slices.SortFunc(tabs, func(a, b *table) int { return strings.Compare(a.prefix, b.prefix) })
	for _, t := range tabs {
		w = t.appendMarked(w)
	}
	s.keyBuf, s.written, s.tabBuf = keys, w, tabs
	if s.fullProofs {
		// Incremental commit: fold each written table's rows into its
		// array, then the block's string keys and those tables' new
		// leaves into the live tree. merkle.IncTree and
		// merkle.ArrayTree state what a block costs.
		edits := s.edits[:0]
		for i := 0; i < len(w); {
			t := w[i].t
			if t == nil {
				v, ok := s.value(&w[i])
				w[i].Deleted = !ok
				edits = append(edits, merkle.Edit{Key: w[i].Key, Value: v, Delete: !ok})
				i++
				continue
			}
			arr := s.arrBuf[:0]
			for ; i < len(w) && w[i].t == t; i++ {
				v, ok := s.value(&w[i])
				w[i].Deleted = !ok
				arr = append(arr, merkle.ArrayEdit{Index: w[i].Seq, Value: v, Delete: !ok})
			}
			if t.arr == nil {
				t.arr = new(merkle.ArrayTree)
			}
			root := t.arr.Apply(arr)
			edits = append(edits, merkle.Edit{Key: t.prefix, Value: merkle.AppendArrayValue(s.vals.Slot(merkle.ArrayValueLen), t.arr.Depth(), root)})
			s.arrBuf = arr
		}
		if len(edits) > 0 {
			clear(s.proofs)
		}
		s.root, s.edits = s.live.Apply(edits), edits
	} else {
		// Chain the block's changes onto the previous root, hashed in one
		// piece from the reused buffer: each string key and its value,
		// then each table's prefix and its records' sequences (8 bytes,
		// big-endian) and values. A deleted key's value is 0xff.
		b := append(s.hashBuf[:0], s.root[:]...)
		b = binary.BigEndian.AppendUint64(b, uint64(height))
		for i := range w {
			switch t := w[i].t; {
			case t == nil:
				b = append(b, w[i].Key...)
			case i == 0 || t != w[i-1].t:
				b = append(b, t.prefix...)
				fallthrough
			default:
				b = binary.BigEndian.AppendUint64(b, w[i].Seq)
			}
			if v, ok := s.value(&w[i]); ok {
				b = append(b, v...)
			} else {
				b, w[i].Deleted = append(b, 0xff), true
			}
		}
		s.root, s.hashBuf = sha256.Sum256(b), b
	}
	s.version = height
	s.journal, s.txMark, s.objs = s.journal[:0], 0, s.objs[:0] // the buffers are reused by the next block
	return s.root
}

// Written returns what the latest Commit's block set or deleted: string
// keys sorted, then records by table prefix and sequence, without
// repeats. The slice is the store's own, reused by the next Commit: read
// it before then, and never write to it.
func (s *State) Written() []Write { return s.written }

// Version returns the latest committed height (0 if none).
func (s *State) Version() int64 { return s.version }

// ProveMembership returns string key's value at the latest committed
// height and its proof against that height's root; the proof is nil when
// the key is absent. Until the next Commit that changes the tree, every request for
// a key gets the same proof, which no one may write to. Only available
// with full proofs enabled, and only at Version().
func (s *State) ProveMembership(height int64, key []byte) ([]byte, *merkle.MembershipProof, error) {
	if err := s.provable(height); err != nil {
		return nil, nil, err
	}
	v, p, _ := s.live.ProveMembership(key)
	return v, p, nil
}

// ProveNonMembership proves string key absent at the latest committed
// height; the proof is nil when the key is present. Only available with
// full proofs enabled, and only at Version().
func (s *State) ProveNonMembership(height int64, key []byte) (*merkle.NonMembershipProof, error) {
	if err := s.provable(height); err != nil {
		return nil, err
	}
	p, _ := s.live.ProveNonMembership(key)
	return p, nil
}

// ProveRecord returns record seq of r's table at the latest committed
// height and its two-level proof against that height's root (see
// merkle.VerifyRecord); the proof is nil when the record is absent.
// Until the next Commit that changes the root, every request for a
// record gets the same proof, which no one may write to. Only available
// with full proofs enabled, and only at Version().
func (s *State) ProveRecord(height int64, r *Records, seq uint64) ([]byte, *merkle.RecordProof, error) {
	if err := s.provable(height); err != nil {
		return nil, nil, err
	}
	t := s.tables[string(r.Prefix)]
	if t == nil || t.arr == nil {
		return nil, nil, nil
	}
	v, ok := s.committed(t, seq)
	if !ok {
		return nil, nil, nil
	}
	at := recordAt{t, seq}
	p := s.proofs[at]
	if p == nil {
		if s.proofs == nil {
			s.proofs = make(map[recordAt]*merkle.RecordProof)
		}
		p = s.proveRow(r.Prefix, t, seq)
		s.proofs[at] = p
	}
	return v, p, nil
}

// ProveRecordAbsent proves record seq of r's table absent at the latest
// committed height (see merkle.VerifyRecordAbsent): the empty leaf at
// seq, a seq beyond the table's capacity, or, when no record of the
// table was ever committed, the absence of its leaf. The proof is nil
// when the record is present. Only available with full proofs enabled,
// and only at Version().
func (s *State) ProveRecordAbsent(height int64, r *Records, seq uint64) (*merkle.RecordProof, error) {
	if err := s.provable(height); err != nil {
		return nil, err
	}
	t := s.tables[string(r.Prefix)]
	if t == nil || t.arr == nil {
		nm, _ := s.live.ProveNonMembership(r.Prefix)
		return &merkle.RecordProof{NoTable: nm}, nil
	}
	if _, ok := s.committed(t, seq); ok {
		return nil, nil
	}
	return s.proveRow(r.Prefix, t, seq), nil
}

// proveRow builds the proof of row seq of t, whose prefix is prefix:
// its array path, when seq lies within the capacity, and the table's
// leaf proof. The proof and its path are cut from the state's chunks: a
// proof is checked after later commits, so it is a copy, never a view of
// the live tree.
func (s *State) proveRow(prefix []byte, t *table, seq uint64) *merkle.RecordProof {
	p := s.recordProofs.New()
	p.Depth, p.Root = t.arr.Depth(), t.arr.Root()
	if seq>>p.Depth == 0 {
		p.Path, _ = t.arr.Prove(s.paths.Slot(p.Depth), seq)
	}
	_, p.Table, _ = s.live.ProveMembership(prefix)
	return p
}

// committed reads record seq of t as of the latest Commit: the row's
// oldest journal entry, if the executing block wrote it, holds that.
func (s *State) committed(t *table, seq uint64) ([]byte, bool) {
	for i := range s.journal {
		if e := &s.journal[i]; e.t == t && e.seq == seq {
			return e.prior, e.had
		}
	}
	return t.lookup(seq)
}

// provable refuses a proof request the live tree cannot answer: any in
// performance mode, and any at a height other than the latest committed.
func (s *State) provable(height int64) error {
	if !s.fullProofs {
		return fmt.Errorf("state: proofs disabled (performance mode)")
	}
	if v := s.Version(); v == 0 || height != v {
		return fmt.Errorf("state: no proofs at height %d: only the latest committed height (%d) is served", height, v)
	}
	return nil
}

// FullProofs reports whether real merkle proofs are enabled.
func (s *State) FullProofs() bool { return s.fullProofs }

// Len reports the number of live keys, records included.
func (s *State) Len() int {
	n := len(s.data)
	// order-free: a sum.
	for _, t := range s.tables {
		n += t.n
	}
	return n
}

// RangePrefix visits every string key with the given prefix in ascending
// key order, stopping early if fn returns false; packet records are not
// visited. Deterministic iteration is the point: the conservation check
// enumerates `supply/` and must see identical order across same-seed
// runs. It walks the whole string map.
func (s *State) RangePrefix(prefix string, fn func(key string, value []byte) bool) {
	keys := make([]string, 0, 16)
	for k := range s.data {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !fn(k, s.data[k].val) {
			return
		}
	}
}

// lookup reads record seq.
func (t *table) lookup(seq uint64) ([]byte, bool) {
	if seq < t.base || (seq-t.base)/64 >= uint64(len(t.present)) {
		return nil, false
	}
	return t.get(int(seq - t.base))
}

// get reads row i, which the table holds.
func (t *table) get(i int) ([]byte, bool) {
	switch {
	case t.present[i/64]&(1<<(i%64)) == 0:
		return nil, false
	case t.vals != nil:
		return t.vals[i], true
	default:
		return t.same, true
	}
}

// set stores v in row i, which the table holds.
func (t *table) set(i int, v []byte) {
	if t.vals == nil {
		if t.n == 0 {
			t.same = v
		} else if !bytes.Equal(v, t.same) {
			t.vals = make([][]byte, 64*len(t.present))
			for j := range t.vals {
				if t.present[j/64]&(1<<(j%64)) != 0 {
					t.vals[j] = t.same
				}
			}
		}
	}
	if t.vals != nil {
		t.vals[i] = v
	}
	if bit := uint64(1) << (i % 64); t.present[i/64]&bit == 0 {
		t.present[i/64] |= bit
		t.n++
	}
}

// clear removes the record in row i, if any.
func (t *table) clear(i int) {
	if bit := uint64(1) << (i % 64); t.present[i/64]&bit != 0 {
		t.present[i/64] &^= bit
		t.n--
		if t.vals != nil {
			t.vals[i] = nil
		}
	}
}

// grow extends the table to hold seq, 64 rows at a time, and returns its
// row.
func (t *table) grow(seq uint64) int {
	if len(t.present) == 0 {
		t.base = seq &^ 63
	}
	if seq < t.base {
		n := (t.base - seq + 63) / 64
		t.present = slices.Insert(t.present, 0, make([]uint64, n)...)
		if t.vals != nil {
			t.vals = slices.Insert(t.vals, 0, make([][]byte, 64*n)...)
		}
		t.written = slices.Insert(t.written, 0, make([]uint64, n)...)
		t.base -= 64 * n
	}
	i := seq - t.base
	if add := int(i/64) + 1 - len(t.present); add > 0 {
		t.present = append(t.present, make([]uint64, add)...)
		if t.vals != nil {
			t.vals = append(t.vals, make([][]byte, 64*add)...)
		}
		t.written = append(t.written, make([]uint64, add)...)
	}
	return int(i)
}

// mark marks row i written and reports whether it is the table's first
// mark since Commit last read them.
func (t *table) mark(i int) bool {
	first := !t.marked
	if first || i/64 < t.lo {
		t.lo = i / 64
	}
	if first || i/64 > t.hi {
		t.hi = i / 64
	}
	t.written[i/64] |= 1 << (i % 64)
	t.marked = true
	return first
}

// appendMarked appends a Write for each marked row, in sequence order,
// and clears the marks.
func (t *table) appendMarked(w []Write) []Write {
	for j := t.lo; j <= t.hi; j++ {
		for m := t.written[j]; m != 0; m &= m - 1 {
			w = append(w, Write{Seq: t.base + uint64(64*j+bits.TrailingZeros64(m)), t: t})
		}
		t.written[j] = 0
	}
	t.marked = false
	return w
}

// Chunk hands out values cut from shared blocks, for values that are kept
// by reference once handed out and never written again (the store's
// values, the keeper's emitted records, proofs): one allocation serves
// many. The zero Chunk is empty, and a block is made only by a request
// that finds no room in the current one: room for 64 requests of that
// size, rounded up to fill the allocation's size class, so an owner
// that is never asked allocates nothing.
type Chunk[T any] []T

// Slot returns an empty slice with room for n values, cut from c.
func (c *Chunk[T]) Slot(n int) []T {
	if cap(*c)-len(*c) < n {
		*c = slices.Grow(Chunk[T](nil), 64*n)
	}
	i := len(*c)
	*c = (*c)[:i+n]
	return (*c)[i : i : i+n]
}

// New returns a zero value cut from c.
func (c *Chunk[T]) New() *T { return &c.Slot(1)[:1][0] }
