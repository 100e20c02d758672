package merkle

import (
	"crypto/sha256"
	"encoding/binary"
	"math/bits"
	"slices"
)

// padNodes[l] is the node at level l over padding alone: a node right of
// an ArrayTree's highest written index, or over empty positions only.
var padNodes = func() (p [65]Hash) {
	p[0] = padLeaf
	for l := 1; l < len(p); l++ {
		p[l] = InnerHash(p[l-1], p[l-1])
	}
	return p
}()

// ArrayLeafHash hashes the leaf at index of an ArrayTree: the index as 8
// big-endian bytes, then the value. No key is hashed: a position is its
// own name.
func ArrayLeafHash(index uint64, value []byte) Hash {
	var stack [128]byte
	buf := append(stack[:0], leafPrefix)
	buf = binary.BigEndian.AppendUint64(buf, index)
	buf = append(buf, value...)
	return sha256.Sum256(buf)
}

// EmptyLeaf is an ArrayTree's leaf at an empty position: the pad leaf,
// so HashLeaves over a dense leaf array is the ArrayTree's root.
func EmptyLeaf() Hash { return padLeaf }

// ArrayValueLen is the length of AppendArrayValue's output.
const ArrayValueLen = 1 + sha256.Size

// AppendArrayValue appends what an ArrayTree's leaf in a string-keyed
// tree binds: the array's depth, one byte, then its root. Binding the
// depth binds the capacity, so a proof that a position lies beyond it is
// a proof of absence.
func AppendArrayValue(dst []byte, depth int, root Hash) []byte {
	return append(append(dst, byte(depth)), root[:]...)
}

// ArrayEdit is one position's net change in a block.
type ArrayEdit struct {
	Index  uint64
	Value  []byte
	Delete bool
}

// ArrayTree is the merkle tree of a fixed-position array: leaf i is
// ArrayLeafHash(i, value) for a stored position and the pad leaf for an
// empty or deleted one, and the capacity is the smallest power of two
// above the highest index ever written. A write never moves another
// leaf, so every Apply is an update: d writes cost d leaf hashes plus
// the distinct inner nodes of their root paths. Each level keeps only
// its live prefix, up to the node over the highest written index; a node
// right of it covers padding alone and is its level's constant, so
// doubling the capacity costs one inner hash and memory follows the
// written span. Its root is HashLeaves over the dense leaf array from 0
// to the highest written index.
type ArrayTree struct {
	levels [][]Hash // levels[l][i] is node i of level l (0 = the leaves), for i <= hi>>l
	idxs   []int    // Apply's written indices, reused
}

// node returns node i of level l, which may lie right of the live prefix.
func (a *ArrayTree) node(l, i int) Hash {
	if row := a.levels[l]; i < len(row) {
		return row[i]
	}
	return padNodes[l]
}

// Depth is the number of levels above the leaves: the array holds
// positions [0, 2^Depth). It is 0 before the first Apply.
func (a *ArrayTree) Depth() int { return max(len(a.levels)-1, 0) }

// Root returns the array's commitment (the empty-tree root before the
// first Apply).
func (a *ArrayTree) Root() Hash {
	if len(a.levels) == 0 {
		return emptyRoot
	}
	return a.levels[len(a.levels)-1][0]
}

// Apply folds one block's edits into the tree and returns the new root.
// Edits are applied in index order whatever the input order (the slice
// is re-sorted in place when it is not sorted), and of several edits of
// one index the last wins. A delete, of a stored position or an empty
// one, writes the pad leaf there.
func (a *ArrayTree) Apply(edits []ArrayEdit) Hash {
	if len(edits) == 0 {
		return a.Root()
	}
	byIndex := func(x, y ArrayEdit) int {
		switch {
		case x.Index < y.Index:
			return -1
		case x.Index > y.Index:
			return 1
		}
		return 0
	}
	if !slices.IsSortedFunc(edits, byIndex) {
		slices.SortStableFunc(edits, byIndex)
	}
	a.grow(int(edits[len(edits)-1].Index))
	idxs, leaves := a.idxs[:0], a.levels[0]
	for j, e := range edits {
		if j+1 < len(edits) && edits[j+1].Index == e.Index {
			continue
		}
		if e.Delete {
			leaves[e.Index] = padLeaf
		} else {
			leaves[e.Index] = ArrayLeafHash(e.Index, e.Value)
		}
		idxs = append(idxs, int(e.Index))
	}
	for l := 1; l < len(a.levels); l++ {
		row := a.levels[l]
		next, prev := idxs[:0], -1
		for _, i := range idxs {
			if p := i / 2; p != prev {
				row[p] = InnerHash(a.levels[l-1][2*p], a.node(l-1, 2*p+1))
				next, prev = append(next, p), p
			}
		}
		idxs = next
	}
	a.idxs = idxs
	return a.Root()
}

// grow extends every level's live prefix to cover index hi, with the
// levels' constants, and adds the levels a larger capacity needs. A new
// top node is the old root beside padding: one inner hash per doubling.
func (a *ArrayTree) grow(hi int) {
	depth, fresh := bits.Len(uint(hi)), len(a.levels) == 0
	for l, row := range a.levels {
		for len(row) <= hi>>l {
			row = append(row, padNodes[l])
		}
		a.levels[l] = row
	}
	for l := len(a.levels); l <= depth; l++ {
		row := make([]Hash, hi>>l+1)
		for i := range row {
			row[i] = padNodes[l]
		}
		if l > 0 && !fresh {
			row[0] = InnerHash(a.levels[l-1][0], a.node(l-1, 1))
		}
		a.levels = append(a.levels, row)
	}
}

// Prove appends the audit path of position index, bottom-up, to dst, or
// reports false when index lies beyond the capacity (or nothing was
// applied). The path is a copy: it stays valid for the root it was taken
// at.
func (a *ArrayTree) Prove(dst []PathStep, index uint64) ([]PathStep, bool) {
	d := a.Depth()
	if len(a.levels) == 0 || index>>d != 0 {
		return dst, false
	}
	for l := 0; l < d; l++ {
		i := int(index >> l)
		dst = append(dst, PathStep{Left: i&1 == 1, Sibling: a.node(l, i^1)})
	}
	return dst, true
}

// RecordProof proves one position of a table's ArrayTree, or that it is
// empty, under a state root, in two levels, as a multistore proves a key
// of one of its stores: the position's path in the table's array, then
// the table's leaf in the string-keyed state tree, keyed by the table's
// prefix with value AppendArrayValue(Depth, Root). The path's direction
// flags spell the position, which must be the record's sequence. Like a
// MembershipProof it is immutable once built.
type RecordProof struct {
	Path  []PathStep       // Depth steps; none when the position lies beyond the capacity
	Depth int              // the array holds positions [0, 2^Depth)
	Root  Hash             // the array's root
	Table *MembershipProof // the table's leaf in the state tree

	// NoTable, an absence proof only, proves instead that the state tree
	// holds no leaf under the table's prefix: no record of the table was
	// ever committed.
	NoTable *NonMembershipProof
}

// maxArrayDepth bounds a RecordProof's depth: 2^64 positions.
const maxArrayDepth = 64

// spells reports whether path's direction flags spell index in exactly
// len(path) bits: bit l of index says whether the sibling at level l is
// the left child.
func spells(path []PathStep, index uint64) bool {
	if len(path) > maxArrayDepth {
		return false
	}
	for l, st := range path {
		if st.Left != (index>>l&1 == 1) {
			return false
		}
	}
	return index>>len(path) == 0
}

// VerifyRecord checks that position seq of the table under prefix holds
// value in the state committed by root.
func VerifyRecord(root Hash, prefix []byte, seq uint64, value []byte, p *RecordProof) error {
	if !recordPathOK(p, seq) || RootFromProof(ArrayLeafHash(seq, value), p.Path) != p.Root {
		return ErrProofInvalid
	}
	var val [ArrayValueLen]byte
	return VerifyMembership(root, prefix, AppendArrayValue(val[:0], p.Depth, p.Root), p.Table)
}

// recordPathOK reports whether p is a two-level proof whose array path
// is as deep as its array and spells seq.
func recordPathOK(p *RecordProof, seq uint64) bool {
	return p != nil && p.NoTable == nil && len(p.Path) == p.Depth && spells(p.Path, seq)
}

// VerifyRecordAbsent checks that position seq of the table under prefix
// is empty in the state committed by root: the pad leaf at seq, a seq
// beyond the array's capacity, or no table at all.
func VerifyRecordAbsent(root Hash, prefix []byte, seq uint64, p *RecordProof) error {
	switch {
	case p == nil:
		return ErrProofInvalid
	case p.NoTable != nil:
		return VerifyNonMembership(root, prefix, p.NoTable)
	case p.Depth < 0 || p.Depth > maxArrayDepth:
		return ErrProofInvalid
	case seq>>p.Depth != 0: // beyond the capacity
		if len(p.Path) != 0 {
			return ErrProofInvalid
		}
	case !recordPathOK(p, seq) || RootFromProof(padLeaf, p.Path) != p.Root:
		return ErrProofInvalid
	}
	var val [ArrayValueLen]byte
	return VerifyMembership(root, prefix, AppendArrayValue(val[:0], p.Depth, p.Root), p.Table)
}
