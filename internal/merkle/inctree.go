package merkle

import (
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// Edit is one key's net change in a block commit.
type Edit struct {
	Key    string
	Value  []byte
	Delete bool
}

// IncTree is the incrementally-maintained Tree of the live application
// state's string keys (a record table is one of them, its leaf keyed by
// the table's prefix and binding its ArrayTree's depth and root): it
// keeps the sorted leaf array and every inner level cached
// between commits and re-hashes only what a block's dirty keys
// invalidate, while committing to exactly the same root as
// NewTree(snapshot) would. A block of d edits over n leaves costs:
//
//   - value-only: d leaf hashes plus their O(d log n) root paths, no
//     moves;
//   - with inserts or deletes: one merge pass of O(n + d) element moves
//     (unchanged leaves keep their cached digests), then a re-hash of
//     every inner node right of the first structural edit that covers
//     a leaf — O(n) inner hashes in the worst case. The packet records,
//     whose inserts would land anywhere, live in ArrayTrees instead.
//
// Its proofs are read from the live arrays in place. Each copies its
// siblings, so a proof taken before an Apply still verifies against the
// root it was taken at. A membership proof is built once per leaf between
// two Applies: every later request for the key gets the same one.
type IncTree struct {
	Tree
	leaves []Hash // the unpadded leaf digests, moved in step with keys

	// proofs holds the membership proofs handed out since the last Apply
	// with an edit, by leaf index; that Apply forgets them all.
	proofs map[int]*MembershipProof

	dirty []int    // Apply's updated leaf indices, reused
	ins   []insert // Apply's set-aside inserts, reused

	moves int // elements Apply has shifted so far (pins its O(n + d) bound in tests)
}

// insert is an edit Apply set aside: edits[edit] goes before compacted
// leaf index at.
type insert struct{ edit, at int }

// NewIncTree returns an empty incremental tree (root = empty-tree root).
func NewIncTree() *IncTree { return &IncTree{Tree: Tree{root: emptyRoot}} }

// ProveMembership is Tree.ProveMembership, remembered: until the next
// Apply with an edit, every request for a key returns the proof the first
// one built.
func (t *IncTree) ProveMembership(key []byte) ([]byte, *MembershipProof, bool) {
	i, ok := t.find(key)
	if !ok {
		return nil, nil, false
	}
	p := t.proofs[i]
	if p == nil {
		if t.proofs == nil {
			t.proofs = make(map[int]*MembershipProof)
		}
		p = t.proveIndex(i)
		t.proofs[i] = p
	}
	return t.values[i], p, true
}

// Apply folds one block's dirty keys into the tree and returns the new
// root. Edits are applied in key order regardless of input order, so map
// iteration order never influences the result; the edits slice itself is
// re-sorted in place. Deleting an absent key and re-writing an identical
// value are no-ops (beyond re-hashing).
func (t *IncTree) Apply(edits []Edit) Hash {
	if len(edits) == 0 {
		return t.Root()
	}
	clear(t.proofs)
	// Stable: duplicate-key edits keep input order, so the last of a run
	// of equal keys is the last writer.
	slices.SortStableFunc(edits, func(a, b Edit) int { return strings.Compare(a.Key, b.Key) })

	// Left to right over the pre-block arrays: each edit is looked up
	// once in the still-untouched suffix [r:], updates are overwritten,
	// deletes dropped by moving the survivors down to the write cursor w,
	// and inserts set aside with the compacted index they go before.
	n := len(t.keys)
	minIdx := -1         // leftmost touched leaf index
	dirty := t.dirty[:0] // updated leaf indices (read only when nothing moved)
	ins := t.ins[:0]
	r, w := 0, 0
	for j, e := range edits {
		if j+1 < len(edits) && edits[j+1].Key == e.Key {
			continue
		}
		i := r + sort.SearchStrings(t.keys[r:], e.Key)
		found := i < n && t.keys[i] == e.Key
		if e.Delete && !found {
			continue
		}
		if minIdx == -1 {
			minIdx = i
		}
		t.move(w, r, i-r)
		w, r = w+i-r, i
		switch {
		case e.Delete:
			r++
		case found:
			t.keys[w], t.values[w], t.leaves[w] = e.Key, e.Value, leafHash(e.Key, e.Value)
			dirty = append(dirty, w)
			w, r = w+1, r+1
		default:
			ins = append(ins, insert{j, w})
		}
	}
	t.dirty, t.ins = dirty, ins
	if r == w && len(ins) == 0 { // nothing moved: value updates only, or no effective edit
		t.rehashPaths(dirty)
		return t.setRoot()
	}
	t.move(w, r, n-r)
	w += n - r

	// Right to left: open every insert gap with one move of the leaves
	// between it and the next gap, straight to their final positions.
	size := w + len(ins)
	t.keys = slices.Grow(t.keys[:w], len(ins))[:size]
	t.values = slices.Grow(t.values[:w], len(ins))[:size]
	t.leaves = slices.Grow(t.leaves[:w], len(ins))[:size]
	for j := len(ins) - 1; j >= 0; j-- {
		e, g := edits[ins[j].edit], ins[j].at
		t.move(g+j+1, g, w-g)
		w = g
		t.keys[g+j], t.values[g+j], t.leaves[g+j] = e.Key, e.Value, leafHash(e.Key, e.Value)
	}
	t.rebuildFrom(minIdx)
	return t.setRoot()
}

// move shifts n entries of the three parallel leaf arrays from src to
// dst (overlap allowed).
func (t *IncTree) move(dst, src, n int) {
	if dst == src || n == 0 {
		return
	}
	copy(t.keys[dst:dst+n], t.keys[src:src+n])
	copy(t.values[dst:dst+n], t.values[src:src+n])
	copy(t.leaves[dst:dst+n], t.leaves[src:src+n])
	t.moves += n
}

// rebuildFrom recomputes the padded leaf level and all inner levels from
// leaf index `from` to the right edge, resizing the level structure when
// the leaf count crossed a power of two.
func (t *IncTree) rebuildFrom(from int) {
	n := len(t.leaves)
	if n == 0 {
		t.levels = nil
		return
	}
	m := 1
	for m < n {
		m *= 2
	}
	if len(t.levels) == 0 || len(t.levels[0]) != m {
		// Size change: allocate fresh levels and recompute everything.
		depth := bits.Len(uint(m)) // m is a power of two: log2(m)+1 levels
		t.levels = make([][]Hash, depth)
		for l, w := 0, m; l < depth; l, w = l+1, w/2 {
			t.levels[l] = make([]Hash, w)
		}
		from = 0
	}
	lv0 := t.levels[0]
	copy(lv0[from:n], t.leaves[from:])
	// A node over padding alone holds its level's constant: those are
	// filled in, and only the live nodes of each row (from <= n, so lo
	// never passes them) are hashed.
	lo, live, pad := from, n, padLeaf
	for i := live; i < m; i++ {
		lv0[i] = pad
	}
	for l := 1; l < len(t.levels); l++ {
		lo, live, pad = lo/2, (live+1)/2, InnerHash(pad, pad)
		row, below := t.levels[l], t.levels[l-1]
		for i := lo; i < live; i++ {
			row[i] = InnerHash(below[2*i], below[2*i+1])
		}
		for i := live; i < len(row); i++ {
			row[i] = pad
		}
	}
}

// rehashPaths recomputes only the root paths of updated leaf indices —
// the pure value-update fast path, O(d log n).
func (t *IncTree) rehashPaths(dirty []int) {
	if len(dirty) == 0 || len(t.levels) == 0 {
		return
	}
	for _, i := range dirty {
		t.levels[0][i] = t.leaves[i]
	}
	idxs := dirty
	for l := 1; l < len(t.levels); l++ {
		row, below := t.levels[l], t.levels[l-1]
		next := idxs[:0]
		prev := -1
		for _, i := range idxs {
			p := i / 2
			if p == prev {
				continue
			}
			prev = p
			row[p] = InnerHash(below[2*p], below[2*p+1])
			next = append(next, p)
		}
		idxs = next
	}
}
