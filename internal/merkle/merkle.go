// Package merkle implements the authenticated key-value commitment used
// by the simulated blockchains.
//
// Cosmos chains commit their application state to an AppHash in every
// block header; IBC light clients verify packet commitments, receipts and
// acknowledgements against that root via merkle membership and
// non-membership proofs (ICS-23). This package provides deterministic
// SHA-256 merkle trees of two shapes, with proofs of both kinds.
//
// A Tree is a complete binary tree over sorted string-keyed leaves,
// padded to a power of two. NewTree builds one from a snapshot, sorting
// and hashing every leaf (O(n log n)); a proof is one binary search plus
// a copy of log n siblings. The live string-keyed state is an IncTree,
// which pays per block instead: O(n + d) element moves for d edits, plus
// a re-hash of the inner nodes right of the first insert or delete
// (value-only blocks re-hash d root paths). It serves its proofs from
// those arrays in place.
//
// An ArrayTree is a fixed-position array, leaf i for index i, where an
// empty position is the pad leaf: nothing ever shifts, so every block
// re-hashes only the root paths of what it wrote. A table of records
// indexed by sequence commits to one, and the array's depth and root are
// the value of the table's leaf in an IncTree: a RecordProof is the two
// levels, the array path and that leaf's membership proof.
package merkle

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math/bits"
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

// padded copies the leaves, filled out with the pad leaf to a power of two.
func padded(leaves []Hash) []Hash {
	m := 1
	for m < len(leaves) {
		m *= 2
	}
	level := make([]Hash, m)
	for i := copy(level, leaves); i < m; i++ {
		level[i] = padLeaf
	}
	return level
}

// buildLevels builds the full tree bottom-up from (padded) leaves.
func buildLevels(leaves []Hash) [][]Hash {
	out := [][]Hash{padded(leaves)}
	for level := out[0]; len(level) > 1; {
		next := make([]Hash, len(level)/2)
		for i := range next {
			next[i] = InnerHash(level[2*i], level[2*i+1])
		}
		out, level = append(out, next), next
	}
	return out
}

// HashLeaves computes the root commitment over a sequence of leaf
// digests (block data and commit hashes), folding one padded copy in
// place: node i of a level overwrites slot i after reading 2i and 2i+1.
func HashLeaves(leaves []Hash) Hash {
	if len(leaves) == 0 {
		return emptyRoot
	}
	level := padded(leaves)
	for n := len(level); n > 1; n /= 2 {
		for i := 0; i < n/2; i++ {
			level[i] = InnerHash(level[2*i], level[2*i+1])
		}
	}
	return level[0]
}

// Tree is a merkle tree over a sorted key-value set. NewTree builds an
// immutable one; IncTree embeds one and keeps it current.
type Tree struct {
	keys   []string
	values [][]byte
	levels [][]Hash // levels[0] = leaf digests padded to a power of two
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
	if len(leaves) > 0 {
		t.levels = buildLevels(leaves)
	}
	t.setRoot()
	return t
}

// setRoot records the top of the levels (or the empty-tree root) as the
// tree's commitment and returns it.
func (t *Tree) setRoot() Hash {
	t.root = emptyRoot
	if len(t.levels) > 0 {
		t.root = t.levels[len(t.levels)-1][0]
	}
	return t.root
}

// Root returns the tree's commitment.
func (t *Tree) Root() Hash { return t.root }

// Len reports the number of (real, unpadded) leaves.
func (t *Tree) Len() int { return len(t.keys) }

// find returns the leaf index of key, or of the first key above it, and
// whether key is present. Comparing with string(key) makes no string.
func (t *Tree) find(key []byte) (int, bool) {
	i := sort.Search(len(t.keys), func(i int) bool { return t.keys[i] >= string(key) })
	return i, i < len(t.keys) && t.keys[i] == string(key)
}

// Get returns the value for key and whether it is present.
func (t *Tree) Get(key []byte) ([]byte, bool) {
	if i, ok := t.find(key); ok {
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

// MembershipProof proves a key-value pair is committed by a root. A
// proof is immutable once built: IncTree hands the same one to every
// requester of its key, and VerifyMembership and Verifier only read it.
type MembershipProof struct {
	// Index is the leaf position in the sorted order; Total the leaf count.
	Index int
	Total int
	Path  []PathStep
}

// ProveMembership builds a membership proof for key. It returns the bound
// value along with the proof, or false if the key is absent.
func (t *Tree) ProveMembership(key []byte) ([]byte, *MembershipProof, bool) {
	i, ok := t.find(key)
	if !ok {
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
	if !indexMatchesPath(p) {
		return ErrProofInvalid
	}
	if got := RootFromProof(LeafHash(key, value), p.Path); got != root {
		return ErrProofInvalid
	}
	return nil
}

// indexMatchesPath reports whether p is non-nil and its Index agrees with
// its direction flags, with no index bit left above the path.
func indexMatchesPath(p *MembershipProof) bool {
	if p == nil || p.Index < 0 {
		return false
	}
	idx := p.Index
	for _, st := range p.Path {
		if st.Left != (idx&1 == 1) {
			return false
		}
		idx /= 2
	}
	return idx == 0
}

// verifierDepth is the longest path a Verifier remembers (2^32 leaves).
const verifierDepth = 32

// Verifier is VerifyMembership and VerifyRecord with a memory of the
// last path it accepted in each tree kind: the string-keyed tree's, and
// the arrays' (each under the array root its proof claims). The proofs
// of one batch share a root and most of their upper path, so a later
// proof under the same root stops hashing at the first level where its
// position meets the remembered one, if its node there equals the
// remembered node and its siblings above equal the remembered siblings:
// from that level up the two computations are the same, and the
// remembered one reached the root. A record proof's table leaf also
// remembers its key and value: the records of one table in one batch
// share it, so after the first the table level costs no hash at all.
// Its verdict is the package function's for every input, whatever it
// accepted before. The zero value remembers nothing.
type Verifier struct {
	pathMemo          // the string-keyed tree's paths: keys and table leaves
	array    pathMemo // array paths
	table    leafMemo // the last table leaf accepted
}

// leafKeyLen is the longest table prefix a Verifier remembers.
const leafKeyLen = 96

// leafMemo is a table leaf's key and value, and its digest.
type leafMemo struct {
	key   [leafKeyLen]byte
	n     int // the key's length; 0 = nothing remembered
	value [ArrayValueLen]byte
	leaf  Hash
}

// pathMemo is one tree kind's remembered path.
type pathMemo struct {
	root  Hash
	n     int // the remembered path's length; 0 = nothing remembered
	index int
	nodes [verifierDepth]Hash // nodes[l] is the node at level l (0 = the leaf)
	sibs  [verifierDepth]Hash
}

// VerifyMembership checks that (key, value) is committed by root, as the
// package function does.
func (v *Verifier) VerifyMembership(root Hash, key, value []byte, p *MembershipProof) error {
	if p == nil || len(p.Path) == 0 || len(p.Path) > verifierDepth {
		return VerifyMembership(root, key, value, p)
	}
	if !indexMatchesPath(p) || !v.pathMemo.verify(root, LeafHash(key, value), p.Index, p.Path) {
		return ErrProofInvalid
	}
	return nil
}

// VerifyRecord checks that position seq of the table under prefix holds
// value in the state committed by root, as the package function does.
func (v *Verifier) VerifyRecord(root Hash, prefix []byte, seq uint64, value []byte, p *RecordProof) error {
	if !recordPathOK(p, seq) {
		return ErrProofInvalid
	}
	leaf := ArrayLeafHash(seq, value)
	if len(p.Path) == 0 || len(p.Path) > verifierDepth {
		if RootFromProof(leaf, p.Path) != p.Root {
			return ErrProofInvalid
		}
	} else if !v.array.verify(p.Root, leaf, int(seq), p.Path) {
		return ErrProofInvalid
	}
	var val [ArrayValueLen]byte
	top := AppendArrayValue(val[:0], p.Depth, p.Root)
	if v.sameTable(root, prefix, top, p.Table) {
		return nil
	}
	if err := v.VerifyMembership(root, prefix, top, p.Table); err != nil {
		return err
	}
	if len(prefix) <= leafKeyLen {
		v.table.n = copy(v.table.key[:], prefix)
		copy(v.table.value[:], top)
		v.table.leaf = LeafHash(prefix, top)
	}
	return nil
}

// sameTable reports whether the table leaf (prefix, value) under root
// with proof p is the one last accepted, on the path the string-keyed
// memory holds for that leaf's digest: that path hashes the digest up to
// root, so p verifies with no hash computed.
func (v *Verifier) sameTable(root Hash, prefix, value []byte, p *MembershipProof) bool {
	m := &v.pathMemo
	return v.table.n > 0 && p != nil && m.n == len(p.Path) && m.root == root && m.index == p.Index &&
		v.table.leaf == m.nodes[0] && string(prefix) == string(v.table.key[:v.table.n]) &&
		string(value) == string(v.table.value[:]) && indexMatchesPath(p) && m.sameAbove(0, p.Path)
}

// verify reports whether leaf, at an index its 1..verifierDepth-step
// path spells, hashes up the path to root, and remembers the path when it
// does.
func (m *pathMemo) verify(root, leaf Hash, index int, path []PathStep) bool {
	n := len(path)
	// meet is the first level at which the position is the remembered
	// one's, or n (the root, no saving) when there is none.
	meet := n
	if m.n == n && m.root == root {
		meet = bits.Len(uint(index ^ m.index))
	}
	var nodes [verifierDepth]Hash
	cur := leaf
	for l, st := range path {
		if l == meet && cur == m.nodes[l] && m.sameAbove(l, path) {
			m.remember(l, index, path, &nodes)
			return true
		}
		nodes[l] = cur
		if st.Left {
			cur = InnerHash(st.Sibling, cur)
		} else {
			cur = InnerHash(cur, st.Sibling)
		}
	}
	if cur != root {
		return false
	}
	m.root, m.n = root, n
	m.remember(n, index, path, &nodes)
	return true
}

// sameAbove reports whether path's siblings from level l up are the
// remembered ones.
func (m *pathMemo) sameAbove(l int, path []PathStep) bool {
	for i := l; i < len(path); i++ {
		if path[i].Sibling != m.sibs[i] {
			return false
		}
	}
	return true
}

// remember records an accepted path's nodes and siblings below level l
// and its index; the levels from l up are already remembered.
func (m *pathMemo) remember(l, index int, path []PathStep, nodes *[verifierDepth]Hash) {
	copy(m.nodes[:l], nodes[:l])
	for i := 0; i < l; i++ {
		m.sibs[i] = path[i].Sibling
	}
	m.index = index
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
func (t *Tree) ProveNonMembership(key []byte) (*NonMembershipProof, bool) {
	i, ok := t.find(key)
	if ok {
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
