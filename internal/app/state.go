package app

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"

	"ibcbench/internal/merkle"
)

// State is the application's versioned key-value store.
//
// Keys are bytes the store copies, so a caller may build every key in one
// reused buffer (see KeyBufLen): a lookup makes no string, and only the
// first insert of a key makes the one string its map entry and journal
// entries share. Values the store owns (see Set and Get).
//
// The current data lives in a flat map and every write goes straight into
// it, leaving one undo entry on the block's journal. A transaction is a
// mark on that journal: committing it moves the mark, aborting it undoes
// the entries above the mark. Proofs are served at one height, the latest
// committed one, from the live merkle tree in place: the executing block
// writes only the map and the journal until Commit. No older height is
// kept, so a request for one is an error.
type State struct {
	data map[string]slot

	// journal holds one entry per write since the last Commit, oldest
	// first; entries below txMark belong to committed transactions. It is
	// the only record of prior values: AbortTx and the block's dirty-key
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
	// data (full-proof mode only): Commit folds the block's dirty keys
	// into it instead of rebuilding the whole tree each height.
	live *merkle.IncTree

	hashBuf []byte        // the bytes a non-proof Commit hashes, reused
	keyBuf  []string      // the last block's dirty keys (Written), reused
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

// undo is what one write replaced: the key's value before it (had = false
// when the key was absent).
type undo struct {
	key   string
	prior []byte
	had   bool
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
	e, ok := s.data[string(key)]
	return e.val, ok
}

// Has reports key presence.
func (s *State) Has(key []byte) bool {
	_, ok := s.data[string(key)]
	return ok
}

// Set writes a key for the executing transaction. The store owns value
// from here on (it is kept by reference, here and in the journal), so the
// caller hands over a slice nothing else will write to.
func (s *State) Set(key, value []byte) {
	k := s.write(key)
	s.data[k] = slot{k, value}
}

// Delete removes a key for the executing transaction. Like a Set of an
// equal value, a Delete of an absent key still marks the key changed in
// this block.
func (s *State) Delete(key []byte) {
	delete(s.data, s.write(key))
}

// write journals what a write of key replaces and returns the key as the
// store owns it: the map's string, or a copy made on first insert.
func (s *State) write(key []byte) string {
	e, had := s.data[string(key)]
	if !had {
		e.key = string(key)
	}
	s.journal = append(s.journal, undo{e.key, e.val, had})
	return e.key
}

// CommitTx keeps the writes of a successful transaction.
func (s *State) CommitTx() { s.txMark = len(s.journal) }

// AbortTx undoes the writes of a failed transaction, newest first.
func (s *State) AbortTx() {
	for i := len(s.journal) - 1; i >= s.txMark; i-- {
		if e := &s.journal[i]; e.had {
			s.data[e.key] = slot{e.key, e.prior}
		} else {
			delete(s.data, e.key)
		}
	}
	s.journal = s.journal[:s.txMark]
}

// Commit finalizes a block at the given height and returns the new root.
func (s *State) Commit(height int64) merkle.Hash {
	s.AbortTx()
	// The block's dirty keys, sorted: every key a committed transaction
	// wrote, whether or not its value ended up different.
	keys := s.keyBuf[:0]
	for i := range s.journal {
		keys = append(keys, s.journal[i].key)
	}
	sort.Strings(keys)
	keys = slices.Compact(keys)
	s.keyBuf = keys
	if s.fullProofs {
		// Incremental commit: fold only the block's dirty keys into the
		// cached leaf hashes. The root is identical to a full
		// merkle.NewTree(s.data) rebuild (golden-root tests pin this);
		// merkle.IncTree states what a block costs instead.
		edits := s.edits[:0]
		for _, k := range keys {
			e, ok := s.data[k]
			edits = append(edits, merkle.Edit{Key: k, Value: e.val, Delete: !ok})
		}
		s.root, s.edits = s.live.Apply(edits), edits
	} else {
		// Chain the sorted block changes onto the previous root, hashed
		// in one piece from the reused buffer.
		b := append(s.hashBuf[:0], s.root[:]...)
		b = binary.BigEndian.AppendUint64(b, uint64(height))
		for _, k := range keys {
			b = append(b, k...)
			if e, ok := s.data[k]; ok {
				b = append(b, e.val...)
			} else {
				b = append(b, 0xff)
			}
		}
		s.root, s.hashBuf = sha256.Sum256(b), b
	}
	s.version = height
	s.journal, s.txMark = s.journal[:0], 0 // the buffer is reused by the next block
	return s.root
}

// Written returns the keys the latest Commit's block set or deleted,
// sorted and without repeats. The slice is the store's own, reused by
// the next Commit: read it before then, and never write to it.
func (s *State) Written() []string { return s.keyBuf }

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

// Len reports the number of live keys.
func (s *State) Len() int { return len(s.data) }

// RangePrefix visits every key with the given prefix in ascending key
// order, stopping early if fn returns false. Deterministic iteration is
// the point: invariant checkers enumerate `supply/` and `commitments/`
// ranges and must see identical order across same-seed runs.
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
