// Package merkle implements the authenticated key-value commitment used
// by the simulated blockchains.
//
// Cosmos chains commit their application state to an AppHash in every
// block header; IBC light clients verify packet commitments, receipts and
// acknowledgements against that root via merkle membership and
// non-membership proofs (ICS-23). This package provides a deterministic
// SHA-256 merkle tree over sorted key-value leaves with both proof kinds.
//
// The tree is a complete binary tree over the sorted leaves, padded to a
// power of two. Tree is one immutable snapshot: NewTree sorts and hashes
// every leaf (O(n log n)), a proof is one binary search plus a copy of
// log n siblings. The live state is an IncTree, which pays per block
// instead: O(n + d) element moves for d edits, plus a re-hash of the
// inner nodes right of the first insert or delete (value-only blocks
// re-hash d root paths), and O(n) moves with no per-key allocation for
// the snapshot the block's proofs are served from.
package merkle

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"sort"
)

// Hash is a 32-byte SHA-256 digest.
type Hash [sha256.Size]byte

// Domain-separation prefixes prevent leaf/inner second-preimage attacks.
const (
	leafPrefix  = byte(0x00)
	innerPrefix = byte(0x01)
)

var (
	// ErrProofInvalid reports a proof that does not verify against the root.
	ErrProofInvalid = errors.New("merkle: proof does not verify")
	// ErrKeyPresent reports a non-membership proof for a key that is present.
	ErrKeyPresent = errors.New("merkle: key is present")
	// emptyRoot commits to the empty tree.
	emptyRoot = sha256.Sum256([]byte("ibcbench/empty-tree"))
	// padLeaf fills the tree out to a power of two.
	padLeaf = sha256.Sum256([]byte("ibcbench/pad-leaf"))
)

// LeafHash hashes a key-value leaf with domain separation and length
// prefixes.
func LeafHash(key, value []byte) Hash { return leafHash(key, value) }

// leafHash assembles the leaf preimage in a stack buffer (a state key
// plus a 32-byte commitment fits; a longer leaf spills to the heap) so
// the tree can hash its string keys without converting them.
func leafHash[K []byte | string](key K, value []byte) Hash {
	var stack [192]byte
	buf := append(stack[:0], leafPrefix)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(key)))
	buf = append(buf, key...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(value)))
	buf = append(buf, value...)
	return sha256.Sum256(buf)
}

// InnerHash combines two child digests.
func InnerHash(left, right Hash) Hash {
	var buf [1 + 2*sha256.Size]byte
	buf[0] = innerPrefix
	copy(buf[1:], left[:])
	copy(buf[1+sha256.Size:], right[:])
	return sha256.Sum256(buf[:])
}

// levels builds the full tree bottom-up from (padded) leaves.
func buildLevels(leaves []Hash) [][]Hash {
	m := 1
	for m < len(leaves) {
		m *= 2
	}
	level := make([]Hash, m)
	copy(level, leaves)
	for i := len(leaves); i < m; i++ {
		level[i] = padLeaf
	}
	out := [][]Hash{level}
	for len(level) > 1 {
		next := make([]Hash, len(level)/2)
		for i := range next {
			next[i] = InnerHash(level[2*i], level[2*i+1])
		}
		out = append(out, next)
		level = next
	}
	return out
}

// HashLeaves computes the root commitment over a sequence of leaf
// digests (used for block data, evidence and commit hashes).
func HashLeaves(leaves []Hash) Hash {
	if len(leaves) == 0 {
		return emptyRoot
	}
	lv := buildLevels(leaves)
	return lv[len(lv)-1][0]
}

// Tree is an immutable merkle tree over a key-value snapshot.
type Tree struct {
	keys   []string
	values [][]byte
	levels [][]Hash
	root   Hash
}

// NewTree builds a tree from a snapshot map. Keys are sorted bytewise.
func NewTree(kv map[string][]byte) *Tree {
	keys := make([]string, 0, len(kv))
	for k := range kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	t := &Tree{keys: keys, values: make([][]byte, len(keys))}
	leaves := make([]Hash, len(keys))
	for i, k := range keys {
		t.values[i] = kv[k]
		leaves[i] = leafHash(k, t.values[i])
	}
	if len(leaves) == 0 {
		t.root = emptyRoot
		return t
	}
	t.levels = buildLevels(leaves)
	t.root = t.levels[len(t.levels)-1][0]
	return t
}

// Root returns the tree's commitment.
func (t *Tree) Root() Hash { return t.root }

// Len reports the number of (real, unpadded) leaves.
func (t *Tree) Len() int { return len(t.keys) }

// Get returns the value for key and whether it is present.
func (t *Tree) Get(key string) ([]byte, bool) {
	i := sort.SearchStrings(t.keys, key)
	if i < len(t.keys) && t.keys[i] == key {
		return t.values[i], true
	}
	return nil, false
}

// PathStep is one sibling digest on an audit path.
type PathStep struct {
	// Left reports whether the sibling is the left child at this level.
	Left    bool
	Sibling Hash
}

// MembershipProof proves a key-value pair is committed by a root.
type MembershipProof struct {
	// Index is the leaf position in the sorted order; Total the leaf count.
	Index int
	Total int
	Path  []PathStep
}

// ProveMembership builds a membership proof for key. It returns the bound
// value along with the proof, or false if the key is absent.
func (t *Tree) ProveMembership(key string) ([]byte, *MembershipProof, bool) {
	i := sort.SearchStrings(t.keys, key)
	if i >= len(t.keys) || t.keys[i] != key {
		return nil, nil, false
	}
	return t.values[i], t.proveIndex(i), true
}

// proveIndex collects the audit path of leaf i.
func (t *Tree) proveIndex(i int) *MembershipProof {
	p := &MembershipProof{Index: i, Total: len(t.keys), Path: make([]PathStep, len(t.levels)-1)}
	idx := i
	for level := range p.Path {
		sib := idx ^ 1
		p.Path[level] = PathStep{Left: sib < idx, Sibling: t.levels[level][sib]}
		idx /= 2
	}
	return p
}

// RootFromProof recomputes the root implied by a leaf digest and path.
func RootFromProof(leaf Hash, path []PathStep) Hash {
	cur := leaf
	for _, st := range path {
		if st.Left {
			cur = InnerHash(st.Sibling, cur)
		} else {
			cur = InnerHash(cur, st.Sibling)
		}
	}
	return cur
}

// VerifyMembership checks that (key, value) is committed by root. The
// proof's claimed Index must be consistent with the path's direction
// flags (bit i of the index says whether the sibling at level i is the
// left child), which binds the index used by non-membership adjacency
// checks.
func VerifyMembership(root Hash, key, value []byte, p *MembershipProof) error {
	if p == nil || p.Index < 0 {
		return ErrProofInvalid
	}
	idx := p.Index
	for _, st := range p.Path {
		if st.Left != (idx&1 == 1) {
			return ErrProofInvalid
		}
		idx /= 2
	}
	if idx != 0 {
		return ErrProofInvalid
	}
	if got := RootFromProof(LeafHash(key, value), p.Path); got != root {
		return ErrProofInvalid
	}
	return nil
}

// NonMembershipProof proves a key is absent from the committed snapshot.
//
// It carries membership proofs for the immediate lexicographic neighbours
// of the absent key (either may be nil at the edges of the key space),
// with their keys and values, plus the total leaf count so adjacency is
// checkable.
type NonMembershipProof struct {
	Total int

	LeftKey    []byte
	LeftValue  []byte
	LeftProof  *MembershipProof
	RightKey   []byte
	RightValue []byte
	RightProof *MembershipProof
}

// ProveNonMembership builds an absence proof for key. It returns false if
// the key is present.
func (t *Tree) ProveNonMembership(key string) (*NonMembershipProof, bool) {
	i := sort.SearchStrings(t.keys, key)
	if i < len(t.keys) && t.keys[i] == key {
		return nil, false
	}
	p := &NonMembershipProof{Total: len(t.keys)}
	if i > 0 {
		p.LeftKey, p.LeftValue, p.LeftProof = []byte(t.keys[i-1]), t.values[i-1], t.proveIndex(i-1)
	}
	if i < len(t.keys) {
		p.RightKey, p.RightValue, p.RightProof = []byte(t.keys[i]), t.values[i], t.proveIndex(i)
	}
	return p, true
}

// VerifyNonMembership checks that key is absent from the snapshot
// committed by root.
func VerifyNonMembership(root Hash, key []byte, p *NonMembershipProof) error {
	if p == nil {
		return ErrProofInvalid
	}
	// Empty tree: everything is absent.
	if p.Total == 0 {
		if p.LeftProof == nil && p.RightProof == nil && root == emptyRoot {
			return nil
		}
		return ErrProofInvalid
	}
	leftIdx := -1
	if p.LeftProof != nil {
		if bytes.Compare(p.LeftKey, key) >= 0 {
			return ErrProofInvalid
		}
		if err := VerifyMembership(root, p.LeftKey, p.LeftValue, p.LeftProof); err != nil {
			return err
		}
		if p.LeftProof.Total != p.Total {
			return ErrProofInvalid
		}
		leftIdx = p.LeftProof.Index
	}
	rightIdx := p.Total
	if p.RightProof != nil {
		if c := bytes.Compare(p.RightKey, key); c <= 0 {
			if c == 0 {
				return ErrKeyPresent
			}
			return ErrProofInvalid
		}
		if err := VerifyMembership(root, p.RightKey, p.RightValue, p.RightProof); err != nil {
			return err
		}
		if p.RightProof.Total != p.Total {
			return ErrProofInvalid
		}
		rightIdx = p.RightProof.Index
	}
	// The neighbours must be adjacent: no leaf lies between them.
	if p.LeftProof == nil {
		if rightIdx != 0 {
			return ErrProofInvalid
		}
		return nil
	}
	if p.RightProof == nil {
		if leftIdx != p.Total-1 {
			return ErrProofInvalid
		}
		return nil
	}
	if rightIdx != leftIdx+1 {
		return ErrProofInvalid
	}
	return nil
}
