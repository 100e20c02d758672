package app

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"ibcbench/internal/merkle"
)

// State is the application's versioned key-value store.
//
// The current data lives in a flat map; every Commit records the keys the
// block changed together with their prior values, so snapshots at recent
// heights can be reconstructed by undoing changes backwards. Merkle trees
// over snapshots are built lazily and cached — the relayer requests one
// proof per packet message against a given proof height, so tree
// construction is amortized across thousands of proofs.
type State struct {
	data map[string][]byte

	// staged holds writes of the transaction currently executing, so a
	// failed transaction can be rolled back atomically.
	staged map[string]*[]byte // nil slot value = delete

	// blockChanged accumulates the block's net changes: key -> value
	// before the block (nil = key absent before).
	blockChanged map[string]*[]byte

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
}

type cachedTree struct {
	height int64
	tree   *merkle.Tree
}

type commitRecord struct {
	height int64
	root   merkle.Hash
	// prior maps each changed key to its pre-block value (nil = absent).
	prior map[string]*[]byte
}

// maxCachedTrees bounds the snapshot-tree cache.
const maxCachedTrees = 4

// NewState returns an empty store.
func NewState(fullProofs bool) *State {
	s := &State{
		data:         make(map[string][]byte),
		staged:       make(map[string]*[]byte),
		blockChanged: make(map[string]*[]byte),
		root:         sha256.Sum256([]byte("ibcbench/genesis")),
		fullProofs:   fullProofs,
	}
	if fullProofs {
		s.live = merkle.NewIncTree()
	}
	return s
}

// Get reads a key, observing staged (in-tx) writes first.
func (s *State) Get(key string) ([]byte, bool) {
	if v, ok := s.staged[key]; ok {
		if v == nil {
			return nil, false
		}
		return *v, true
	}
	v, ok := s.data[key]
	return v, ok
}

// Has reports key presence.
func (s *State) Has(key string) bool {
	_, ok := s.Get(key)
	return ok
}

// Set stages a write for the executing transaction.
func (s *State) Set(key string, value []byte) {
	v := append([]byte(nil), value...)
	s.staged[key] = &v
}

// Delete stages a deletion.
func (s *State) Delete(key string) {
	s.staged[key] = nil
}

// CommitTx applies the staged writes of a successful transaction.
func (s *State) CommitTx() {
	for k, v := range s.staged {
		if _, tracked := s.blockChanged[k]; !tracked {
			if old, ok := s.data[k]; ok {
				oldCopy := append([]byte(nil), old...)
				s.blockChanged[k] = &oldCopy
			} else {
				s.blockChanged[k] = nil
			}
		}
		if v == nil {
			delete(s.data, k)
		} else {
			s.data[k] = *v
		}
	}
	s.staged = make(map[string]*[]byte)
}

// AbortTx discards the staged writes of a failed transaction.
func (s *State) AbortTx() {
	s.staged = make(map[string]*[]byte)
}

// Commit finalizes a block at the given height and returns the new root.
func (s *State) Commit(height int64) merkle.Hash {
	s.AbortTx()
	if s.fullProofs {
		// Incremental commit: fold only the block's dirty keys into the
		// cached leaf hashes. The root is identical to a full
		// merkle.NewTree(s.data) rebuild (golden-root tests pin this);
		// merkle.IncTree states what a block costs instead.
		edits := make([]merkle.Edit, 0, len(s.blockChanged))
		for k := range s.blockChanged {
			if v, ok := s.data[k]; ok {
				edits = append(edits, merkle.Edit{Key: k, Value: v})
			} else {
				edits = append(edits, merkle.Edit{Key: k, Delete: true})
			}
		}
		s.root = s.live.Apply(edits)
	} else {
		// Chain the sorted block changes onto the previous root.
		keys := make([]string, 0, len(s.blockChanged))
		for k := range s.blockChanged {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		h := sha256.New()
		h.Write(s.root[:])
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(height))
		h.Write(n[:])
		for _, k := range keys {
			h.Write([]byte(k))
			if v, ok := s.data[k]; ok {
				h.Write(v)
			} else {
				h.Write([]byte{0xff})
			}
		}
		copy(s.root[:], h.Sum(nil))
	}
	s.commits = append(s.commits, commitRecord{
		height: height,
		root:   s.root,
		prior:  s.blockChanged,
	})
	s.blockChanged = make(map[string]*[]byte)
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
	for k, v := range s.data {
		snap[k] = v
	}
	for i := len(s.commits) - 1; i >= 0 && s.commits[i].height > height; i-- {
		for k, prior := range s.commits[i].prior {
			if prior == nil {
				delete(snap, k)
			} else {
				snap[k] = *prior
			}
		}
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

// Len reports the number of live keys (staged writes excluded).
func (s *State) Len() int { return len(s.data) }

// RangePrefix visits every committed key with the given prefix in
// ascending key order (staged in-tx writes excluded), stopping early if
// fn returns false. Deterministic iteration is the point: invariant
// checkers enumerate `supply/` and `commitments/` ranges and must see
// identical order across same-seed runs.
func (s *State) RangePrefix(prefix string, fn func(key string, value []byte) bool) {
	keys := make([]string, 0, 16)
	for k := range s.data {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !fn(k, s.data[k]) {
			return
		}
	}
}
