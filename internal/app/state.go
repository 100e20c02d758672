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
// first insert of a key makes the one string its map entry, journal
// entries and archive share. Values the store owns (see Set and Get).
//
// The current data lives in a flat map and every write goes straight into
// it, leaving one undo entry on the block's journal. A transaction is a
// mark on that journal: committing it moves the mark, aborting it undoes
// the entries above the mark. In full-proof mode each Commit archives the
// block's oldest entry per changed key, so snapshots at recent heights can
// be reconstructed by undoing blocks backwards. Merkle trees over
// snapshots are built lazily and cached — the relayer requests one proof
// per packet message against a given proof height, so tree construction
// is amortized across thousands of proofs.
type State struct {
	data map[string]slot

	// journal holds one entry per write since the last Commit, oldest
	// first; entries below txMark belong to committed transactions. It is
	// the only record of prior values: AbortTx, the block's dirty-key set
	// and the per-height archive are all read from it.
	journal []undo
	txMark  int

	// commits[i] describes the commit that produced height i+1.
	commits []commitRecord

	root merkle.Hash

	// fullProofs selects real merkle roots and proofs; when false the
	// root is a cheap running hash chain and proofs are placeholders
	// (see Config.FullProofs in the chain package).
	fullProofs bool

	// live is the incrementally-maintained merkle tree over the current
	// data (full-proof mode only): Commit folds the block's dirty keys
	// into it instead of rebuilding the whole tree each height.
	live *merkle.IncTree

	// trees caches the most recently built snapshot trees (a ring:
	// treeNext is the slot the next one takes, evicting the oldest).
	trees    [maxCachedTrees]cachedTree
	treeNext int

	hashBuf []byte // the bytes a non-proof Commit hashes, reused
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

type cachedTree struct {
	height int64
	tree   *merkle.Tree
}

// undo is what one write replaced: the key's value before it (had = false
// when the key was absent).
type undo struct {
	key   string
	prior []byte
	had   bool
}

type commitRecord struct {
	height int64
	root   merkle.Hash
	// prior holds, for each key the block changed, its pre-block value.
	// Only kept with full proofs: nothing else rebuilds an older height.
	prior []undo
}

// maxCachedTrees bounds the snapshot-tree cache.
const maxCachedTrees = 4

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

// AbortTx undoes the writes of a failed transaction.
func (s *State) AbortTx() {
	rollback(s.data, s.journal[s.txMark:], func(e *undo) slot { return slot{e.key, e.prior} })
	s.journal = s.journal[:s.txMark]
}

// rollback undoes entries over m, newest first; val is the map value that
// puts an entry's prior value back.
func rollback[V any](m map[string]V, entries []undo, val func(*undo) V) {
	for i := len(entries) - 1; i >= 0; i-- {
		if e := &entries[i]; e.had {
			m[e.key] = val(e)
		} else {
			delete(m, e.key)
		}
	}
}

// Commit finalizes a block at the given height and returns the new root.
func (s *State) Commit(height int64) merkle.Hash {
	s.AbortTx()
	// The block's dirty keys, sorted: every key a committed transaction
	// wrote, whether or not its value ended up different.
	keys := make([]string, len(s.journal))
	for i := range s.journal {
		keys[i] = s.journal[i].key
	}
	sort.Strings(keys)
	keys = slices.Compact(keys)
	var prior []undo
	if s.fullProofs {
		// Incremental commit: fold only the block's dirty keys into the
		// cached leaf hashes. The root is identical to a full
		// merkle.NewTree(s.data) rebuild (golden-root tests pin this);
		// merkle.IncTree states what a block costs instead.
		edits := make([]merkle.Edit, len(keys))
		for i, k := range keys {
			e, ok := s.data[k]
			edits[i] = merkle.Edit{Key: k, Value: e.val, Delete: !ok}
		}
		s.root = s.live.Apply(edits)
		// Archive each key's oldest entry, its pre-block value: walking
		// newest-first, the oldest is the last to land in the key's slot.
		prior = make([]undo, len(keys))
		for i := len(s.journal) - 1; i >= 0; i-- {
			prior[sort.SearchStrings(keys, s.journal[i].key)] = s.journal[i]
		}
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
	s.commits = append(s.commits, commitRecord{height: height, root: s.root, prior: prior})
	s.journal, s.txMark = s.journal[:0], 0 // the buffer is reused by the next block
	return s.root
}

// Root returns the latest committed root.
func (s *State) Root() merkle.Hash { return s.root }

// Version returns the latest committed height (0 if none).
func (s *State) Version() int64 {
	if len(s.commits) == 0 {
		return 0
	}
	return s.commits[len(s.commits)-1].height
}

// RootAt returns the committed root at a height.
func (s *State) RootAt(height int64) (merkle.Hash, error) {
	for i := len(s.commits) - 1; i >= 0; i-- {
		if s.commits[i].height == height {
			return s.commits[i].root, nil
		}
		if s.commits[i].height < height {
			break
		}
	}
	return merkle.Hash{}, fmt.Errorf("state: no commit at height %d", height)
}

// snapshotAt reconstructs the key-value map as of a committed height by
// undoing newer block changes.
func (s *State) snapshotAt(height int64) (map[string][]byte, error) {
	if _, err := s.RootAt(height); err != nil {
		return nil, err
	}
	snap := make(map[string][]byte, len(s.data))
	for k, e := range s.data {
		snap[k] = e.val
	}
	prior := func(e *undo) []byte { return e.prior }
	rollback(snap, s.journal, prior) // the open block's writes, if one is executing
	for i := len(s.commits) - 1; i >= 0 && s.commits[i].height > height; i-- {
		rollback(snap, s.commits[i].prior, prior)
	}
	return snap, nil
}

// TreeAt returns the (cached) merkle tree of the snapshot at a height.
// Only available with full proofs enabled.
func (s *State) TreeAt(height int64) (*merkle.Tree, error) {
	if !s.fullProofs {
		return nil, fmt.Errorf("state: proofs disabled (performance mode)")
	}
	for _, c := range s.trees {
		if c.tree != nil && c.height == height {
			return c.tree, nil
		}
	}
	var t *merkle.Tree
	if height > 0 && height == s.Version() {
		// The live incremental tree already holds this height: snapshot
		// it (hash moves only) instead of reconstructing and re-hashing
		// the whole key space.
		t = s.live.Snapshot()
	} else {
		snap, err := s.snapshotAt(height)
		if err != nil {
			return nil, err
		}
		t = merkle.NewTree(snap)
	}
	if got, want := t.Root(), mustRoot(s, height); got != want {
		return nil, fmt.Errorf("state: reconstructed root mismatch at height %d", height)
	}
	s.trees[s.treeNext] = cachedTree{height, t}
	s.treeNext = (s.treeNext + 1) % maxCachedTrees
	return t, nil
}

func mustRoot(s *State, height int64) merkle.Hash {
	r, err := s.RootAt(height)
	if err != nil {
		return merkle.Hash{}
	}
	return r
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
