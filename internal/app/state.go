package app

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
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
//     entry. Its key is spelled out only where a string is consumed:
//     under full proofs, as the merkle leaf's key, made once and kept
//     with the record's row. The performance-mode commit hash takes the
//     table's prefix and the sequence instead.
//   - Every other key (balances, supply, clients, connections, channel
//     ends, nextSequenceSend, middleware records): a flat string map. A
//     lookup makes no string, and only the first insert of a key makes the
//     one string its map entry and journal entries share.
//
// Get, Has, Set and Delete take either kind by key: a key that is an
// existing table's prefix plus a sequence is that table's record.
// Values the store owns (see Set and Get).
//
// Every write goes straight into the map or a table, leaving one undo
// entry on the block's journal. A transaction is a mark on that journal:
// committing it moves the mark, aborting it undoes the entries above the
// mark. Proofs are served at one height, the latest committed one, from
// the live merkle tree in place: the executing block writes only the
// store and the journal until Commit. No older height is kept, so a
// request for one is an error.
//
// The full-proof root is the merkle root over every key, records
// included, as it always was. The performance-mode root chains each
// block's written string keys in key order, then its records by table
// prefix and sequence, each table's prefix once and each sequence as 8
// bytes (see Commit). That moved the root once, when the records left
// the string map.
type State struct {
	data map[string]slot

	// tables holds the packet-record tables by prefix, made on first
	// write; loose holds the prefix of every key ever stored in the map
	// that is a prefix plus a decimal sequence, so no table is made under
	// records already stored as strings (see newTable).
	tables map[string]*table
	loose  map[string]bool

	// journal holds one entry per write since the last Commit, oldest
	// first; entries below txMark belong to committed transactions. It is
	// the only record of prior values: AbortTx and the block's written
	// set are both read from it.
	journal []undo
	txMark  int

	version int64 // the latest committed height (0 if none)
	root    merkle.Hash

	// fullProofs selects real merkle roots and proofs; when false the
	// root is a cheap running hash chain and proofs are placeholders
	// (see Config.FullProofs in the chain package).
	fullProofs bool

	// live is the incrementally-maintained merkle tree over the committed
	// data (full-proof mode only): Commit folds the block's written keys
	// into it instead of rebuilding the whole tree each height.
	live *merkle.IncTree

	hashBuf []byte        // the bytes a non-proof Commit hashes, reused
	keyBuf  []string      // the block's written string keys, reused
	tabBuf  []*table      // the block's written tables, reused
	written []Write       // the last block's writes (Written), reused
	edits   []merkle.Edit // the block's edits in a full-proof Commit, reused
}

// slot is one map entry: the value, and the key string every later write
// of the key records in the journal.
type slot struct {
	key string
	val []byte
}

// KeyBufLen sizes the stack buffer callers build a state key in; the
// simulator's keys are about 60 bytes, and a longer one only costs the
// append an allocation.
const KeyBufLen = 128

// undo is what one write replaced: the value before it (had = false when
// absent), of string key key, or of record seq of table t.
type undo struct {
	key   string
	t     *table
	seq   uint64
	prior []byte
	had   bool
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

	// keys holds, under full proofs (keyed), row i's key once Commit made
	// it: a record's leaf key is made on its first commit and reused by
	// every later edit of the row, a delete included.
	keys  []string
	keyed bool

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

// Get reads a key, observing the executing transaction's writes. The
// returned slice is the store's own: callers never write to it.
func (s *State) Get(key []byte) ([]byte, bool) {
	if t, seq := s.record(key); t != nil {
		return t.lookup(seq)
	}
	e, ok := s.data[string(key)]
	return e.val, ok
}

// Has reports key presence.
func (s *State) Has(key []byte) bool {
	_, ok := s.Get(key)
	return ok
}

// Set writes a key for the executing transaction. The store owns value
// from here on (it is kept by reference, here and in the journal), so the
// caller hands over a slice nothing else will write to. A record key
// whose table is not made yet is stored as a string key, and its table
// is then never made (newTable panics): records are written by
// SetRecord first.
func (s *State) Set(key, value []byte) {
	if t, seq := s.record(key); t != nil {
		s.setRow(t, seq, value)
		return
	}
	k, had := s.write(key)
	if i := strings.LastIndexByte(k, '/') + 1; !had && i > 0 && !s.loose[k[:i]] {
		if _, ok := parseSeq(key[i:]); ok {
			if s.loose == nil {
				s.loose = make(map[string]bool)
			}
			s.loose[k[:i]] = true // k inserted reads as a record of prefix k[:i]
		}
	}
	s.data[k] = slot{k, value}
}

// Delete removes a key for the executing transaction. Like a Set of an
// equal value, a Delete of an absent key still marks the key changed in
// this block.
func (s *State) Delete(key []byte) {
	if t, seq := s.record(key); t != nil {
		s.deleteRow(t, seq)
		return
	}
	k, _ := s.write(key)
	delete(s.data, k)
}

// write journals what a write of string key replaces and returns the key
// as the store owns it (the map's string, or a copy made on first insert)
// and whether the map held it.
func (s *State) write(key []byte) (string, bool) {
	e, had := s.data[string(key)]
	if !had {
		e.key = string(key)
	}
	s.journal = append(s.journal, undo{key: e.key, prior: e.val, had: had})
	return e.key, had
}

// record finds the table key belongs to: key is an existing table's
// prefix followed by a sequence in decimal.
func (s *State) record(key []byte) (*table, uint64) {
	if len(s.tables) == 0 {
		return nil, 0
	}
	i := bytes.LastIndexByte(key, '/') + 1
	seq, ok := parseSeq(key[i:])
	if i == 0 || !ok {
		return nil, 0
	}
	return s.tables[string(key[:i])], seq
}

// parseSeq reads a sequence as strconv.AppendUint writes it: decimal
// digits, no leading zero. Any other text is not a record's sequence.
func parseSeq(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 1 && b[0] == '0' {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		d := uint64(c - '0')
		if c < '0' || c > '9' || n > (math.MaxUint64-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
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

// HasRecord reports whether record seq of r's table is stored, as Has
// does.
func (s *State) HasRecord(r *Records, seq uint64) bool {
	if t := s.tables[string(r.Prefix)]; t != nil {
		_, ok := t.lookup(seq)
		return ok
	}
	// No table yet: a record written by key is a string key (see Set).
	var b [KeyBufLen]byte
	_, ok := s.data[string(strconv.AppendUint(append(b[:0], r.Prefix...), seq, 10))]
	return ok
}

// newTable makes r's table. Records written by key before it would be
// string keys it cannot see, so it refuses to exist beside them.
func (s *State) newTable(r *Records) *table {
	p := string(r.Prefix)
	if !strings.HasSuffix(p, "/") {
		panic(fmt.Sprintf("state: record prefix %q does not end in '/'", p))
	}
	if s.loose[p] {
		panic(fmt.Sprintf("state: records under %q were written by key before their table", p))
	}
	if s.tables == nil {
		s.tables = make(map[string]*table)
	}
	t := &table{kind: r.Kind, channel: strings.Clone(r.Channel), prefix: p, keyed: s.fullProofs}
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
			s.data[e.key] = slot{e.key, e.prior}
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
		// Incremental commit: fold only the block's writes into the
		// cached leaf hashes. The root is identical to a full
		// merkle.NewTree rebuild over every key (golden-root tests pin
		// this); merkle.IncTree states what a block costs instead.
		edits := s.edits[:0]
		for i := range w {
			v, ok := s.value(&w[i])
			w[i].Deleted = !ok
			edits = append(edits, merkle.Edit{Key: s.leafKey(&w[i]), Value: v, Delete: !ok})
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
	s.journal, s.txMark = s.journal[:0], 0 // the buffer is reused by the next block
	return s.root
}

// leafKey returns w's key as a merkle leaf key: a string key as it is, a
// record's key made once and kept with its row.
func (s *State) leafKey(w *Write) string {
	if w.t == nil {
		return w.Key
	}
	t, i := w.t, w.Seq-w.t.base
	if t.keys[i] == "" {
		s.hashBuf = w.AppendKey(s.hashBuf[:0]) // unused by a full-proof Commit
		t.keys[i] = string(s.hashBuf)
	}
	return t.keys[i]
}

// Written returns what the latest Commit's block set or deleted: string
// keys sorted, then records by table prefix and sequence, without
// repeats. The slice is the store's own, reused by the next Commit: read
// it before then, and never write to it.
func (s *State) Written() []Write { return s.written }

// Version returns the latest committed height (0 if none).
func (s *State) Version() int64 { return s.version }

// ProveMembership returns key's value at the latest committed height and
// its proof against that height's root; the proof is nil when the key is
// absent. Until the next Commit that changes the tree, every request for
// a key gets the same proof, which no one may write to. Only available
// with full proofs enabled, and only at Version().
func (s *State) ProveMembership(height int64, key []byte) ([]byte, *merkle.MembershipProof, error) {
	if err := s.provable(height); err != nil {
		return nil, nil, err
	}
	v, p, _ := s.live.ProveMembership(key)
	return v, p, nil
}

// ProveNonMembership proves key absent at the latest committed height;
// the proof is nil when the key is present. Only available with full
// proofs enabled, and only at Version().
func (s *State) ProveNonMembership(height int64, key []byte) (*merkle.NonMembershipProof, error) {
	if err := s.provable(height); err != nil {
		return nil, err
	}
	p, _ := s.live.ProveNonMembership(key)
	return p, nil
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
		if t.keyed {
			t.keys = slices.Insert(t.keys, 0, make([]string, 64*n)...)
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
		if t.keyed {
			t.keys = append(t.keys, make([]string, 64*add)...)
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
