package merkle

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// denseLeaves is the full rebuild's leaf array of an ArrayTree: model's
// leaf at each stored index, the empty leaf elsewhere, from 0 to hi.
func denseLeaves(model map[uint64][]byte, hi uint64) []Hash {
	leaves := make([]Hash, hi+1)
	for i := range leaves {
		leaves[i] = EmptyLeaf()
		if v, ok := model[uint64(i)]; ok {
			leaves[i] = ArrayLeafHash(uint64(i), v)
		}
	}
	return leaves
}

// checkArray compares a with the full rebuild of model over [0, hi]:
// its root and depth, the live prefix it stores, and every position's
// path (the rebuild's siblings, verifying its leaf or the empty leaf),
// and no path beyond the capacity.
func checkArray(t *testing.T, a *ArrayTree, model map[uint64][]byte, hi uint64) {
	t.Helper()
	leaves := denseLeaves(model, hi)
	levels := buildLevels(leaves)
	if a.Root() != HashLeaves(leaves) || a.Depth() != len(levels)-1 {
		t.Fatalf("root %x depth %d; full rebuild over %d leaves %x depth %d", a.Root(), a.Depth(), len(leaves), HashLeaves(leaves), len(levels)-1)
	}
	for l, row := range a.levels {
		if uint64(len(row)) != hi>>l+1 {
			t.Fatalf("level %d keeps %d nodes, want the live %d", l, len(row), hi>>l+1)
		}
	}
	for i := uint64(0); i < uint64(len(levels[0])); i++ {
		path, ok := a.Prove(nil, i)
		if !ok || len(path) != a.Depth() || !spells(path, i) {
			t.Fatalf("index %d: ok=%v path of %d steps", i, ok, len(path))
		}
		for l, st := range path {
			if st.Sibling != levels[l][(i>>l)^1] {
				t.Fatalf("index %d level %d: sibling %x, full rebuild %x", i, l, st.Sibling, levels[l][(i>>l)^1])
			}
		}
		if RootFromProof(levels[0][i], path) != a.Root() {
			t.Fatalf("index %d: path does not reach the root", i)
		}
	}
	if _, ok := a.Prove(nil, uint64(len(levels[0]))); ok {
		t.Fatalf("a path beyond the capacity %d", len(levels[0]))
	}
}

// Prove appends a path after what its destination holds, and into a
// destination with room it allocates nothing.
func TestArrayProveAppends(t *testing.T) {
	a := new(ArrayTree)
	a.Apply([]ArrayEdit{{Index: 5, Value: []byte("v")}, {Index: 40, Value: []byte("w")}})
	want, _ := a.Prove(nil, 5)
	head := PathStep{Left: true}
	got, ok := a.Prove([]PathStep{head}, 5)
	if !ok || len(got) != 1+len(want) || got[0] != head {
		t.Fatalf("Prove after a step = %v, %v", got, ok)
	}
	for i := range want {
		if got[1+i] != want[i] {
			t.Fatalf("step %d of the appended path differs", i)
		}
	}
	if back, ok := a.Prove(got[:1], 1<<a.Depth()); ok || len(back) != 1 {
		t.Fatalf("a position beyond the capacity appended %d steps", len(back)-1)
	}
	dst := make([]PathStep, 0, a.Depth())
	if n := testing.AllocsPerRun(20, func() { a.Prove(dst, 40) }); n != 0 {
		t.Fatalf("Prove into a sized destination took %.0f allocations", n)
	}
}

func TestArrayTreeMatchesFullRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := new(ArrayTree)
	if a.Root() != HashLeaves(nil) || a.Depth() != 0 {
		t.Fatal("an empty array is not the empty tree")
	}
	if _, ok := a.Prove(nil, 0); ok {
		t.Fatal("an empty array proved a position")
	}
	model := map[uint64][]byte{}
	hi := uint64(0)
	for step := 0; step < 100; step++ {
		var edits []ArrayEdit
		for i := 0; i < 1+rng.Intn(6); i++ {
			idx := uint64(rng.Intn(8 + 4*step))
			e := ArrayEdit{Index: idx, Value: fmt.Appendf(nil, "v%d-%d", step, i), Delete: rng.Intn(4) == 0}
			edits = append(edits, e)
		}
		for _, e := range edits {
			if e.Delete {
				delete(model, e.Index)
			} else {
				model[e.Index] = e.Value
			}
			hi = max(hi, e.Index)
		}
		a.Apply(edits)
		checkArray(t, a, model, hi)
	}
}

// TestArrayTreeKeepsTheWrittenSpan: a write far beyond the capacity adds
// the levels it needs, and each level keeps only its nodes up to the
// written index.
func TestArrayTreeKeepsTheWrittenSpan(t *testing.T) {
	a := new(ArrayTree)
	model := map[uint64][]byte{1: []byte("a"), 3: []byte("b")}
	a.Apply([]ArrayEdit{{Index: 3, Value: model[3]}, {Index: 1, Value: model[1]}})
	checkArray(t, a, model, 3)
	model[1000] = []byte("c")
	a.Apply([]ArrayEdit{{Index: 1000, Value: model[1000]}})
	checkArray(t, a, model, 1000)
	delete(model, 1000)
	a.Apply([]ArrayEdit{{Index: 1000, Delete: true}, {Index: 1001, Delete: true}})
	checkArray(t, a, model, 1001)
}

// twoLevel builds a state tree over the string keys of kv plus one leaf
// per array, keyed by its prefix, as app.State commits its tables.
func twoLevel(kv map[string][]byte, arrays map[string]*ArrayTree) *Tree {
	all := map[string][]byte{}
	for k, v := range kv {
		all[k] = v
	}
	for prefix, a := range arrays {
		all[prefix] = AppendArrayValue(nil, a.Depth(), a.Root())
	}
	return NewTree(all)
}

// recordProof builds the two-level proof of position seq of the array
// under prefix in state tree st.
func recordProof(st *Tree, prefix string, a *ArrayTree, seq uint64) *RecordProof {
	path, _ := a.Prove(nil, seq)
	_, top, _ := st.ProveMembership([]byte(prefix))
	return &RecordProof{Path: path, Depth: a.Depth(), Root: a.Root(), Table: top}
}

// TestRecordProofs: a stored position proves its value and not its
// absence; an empty one, one beyond the capacity and one of a table the
// state lacks prove absence and no value; and each forgery is refused.
func TestRecordProofs(t *testing.T) {
	acks, receipts := new(ArrayTree), new(ArrayTree)
	acks.Apply([]ArrayEdit{{Index: 1, Value: []byte("ack1")}, {Index: 2, Value: []byte("ack2")}, {Index: 5, Value: []byte("ack5")}})
	receipts.Apply([]ArrayEdit{{Index: 1, Value: []byte("r")}, {Index: 2, Value: []byte("r")}})
	arrays := map[string]*ArrayTree{"acks/": acks, "receipts/": receipts}
	st := twoLevel(map[string][]byte{"balance/a": []byte("9"), "z": []byte("1")}, arrays)
	root := st.Root()
	v := new(Verifier)
	member := func(prefix string, seq uint64, value []byte, p *RecordProof) error {
		err := VerifyRecord(root, []byte(prefix), seq, value, p)
		if got := v.VerifyRecord(root, []byte(prefix), seq, value, p); got != err {
			t.Fatalf("%s%d: Verifier says %v, VerifyRecord %v", prefix, seq, got, err)
		}
		return err
	}

	for _, seq := range []uint64{1, 2, 5} {
		p := recordProof(st, "acks/", acks, seq)
		if err := member("acks/", seq, fmt.Appendf(nil, "ack%d", seq), p); err != nil {
			t.Fatalf("ack %d: %v", seq, err)
		}
		if VerifyRecordAbsent(root, []byte("acks/"), seq, p) == nil {
			t.Fatalf("ack %d: its proof shows it absent", seq)
		}
	}
	empty := recordProof(st, "acks/", acks, 3)
	beyond := recordProof(st, "acks/", acks, 9)
	if beyond.Path != nil {
		t.Fatal("a path beyond the capacity")
	}
	nm, _ := st.ProveNonMembership([]byte("commitments/"))
	noTable := &RecordProof{NoTable: nm}
	for _, c := range []struct {
		name   string
		prefix string
		seq    uint64
		p      *RecordProof
	}{
		{"an empty position", "acks/", 3, empty},
		{"position 0", "acks/", 0, recordProof(st, "acks/", acks, 0)},
		{"beyond the capacity", "acks/", 9, beyond},
		{"no table", "commitments/", 4, noTable},
	} {
		if err := VerifyRecordAbsent(root, []byte(c.prefix), c.seq, c.p); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if member(c.prefix, c.seq, nil, c.p) == nil {
			t.Fatalf("%s: a value verified", c.name)
		}
	}

	// Forgeries, each refused.
	ack2 := recordProof(st, "acks/", acks, 2)
	grown := new(ArrayTree)
	grown.Apply([]ArrayEdit{{Index: 1, Value: []byte("ack1")}, {Index: 2, Value: []byte("ack2")}, {Index: 5, Value: []byte("ack5")}, {Index: 9, Value: []byte("ack9")}})
	later := twoLevel(map[string][]byte{"balance/a": []byte("9"), "z": []byte("1")}, map[string]*ArrayTree{"acks/": grown, "receipts/": receipts})
	for _, c := range []struct {
		name string
		err  error
	}{
		{"ack 2's proof for sequence 1", member("acks/", 1, []byte("ack2"), ack2)},
		{"ack 2's proof for sequence 3, with ack 2's value", member("acks/", 3, []byte("ack2"), ack2)},
		{"a receipt's proof for the ack table", member("acks/", 1, []byte("r"), recordProof(st, "receipts/", receipts, 1))},
		{"an ack's proof for the receipt table", member("receipts/", 1, []byte("ack1"), recordProof(st, "acks/", acks, 1))},
		{"an empty-leaf proof of a stored ack", VerifyRecordAbsent(root, []byte("acks/"), 2, &RecordProof{Path: ack2.Path, Depth: ack2.Depth, Root: ack2.Root, Table: ack2.Table})},
		{"an empty position's proof for a stored one", VerifyRecordAbsent(root, []byte("acks/"), 2, empty)},
		{"a proof beyond the capacity, for a position within it", VerifyRecordAbsent(root, []byte("acks/"), 2, &RecordProof{Depth: ack2.Depth, Root: ack2.Root, Table: ack2.Table})},
		{"a shallower depth claimed", VerifyRecordAbsent(root, []byte("acks/"), 5, &RecordProof{Depth: 2, Root: ack2.Root, Table: ack2.Table})},
		{"an absence beyond the capacity, after the table grew there", VerifyRecordAbsent(later.Root(), []byte("acks/"), 9, beyond)},
		{"no table, for a table the state holds", VerifyRecordAbsent(root, []byte("acks/"), 4, &RecordProof{NoTable: func() *NonMembershipProof { p, _ := st.ProveNonMembership([]byte("acks/")); return p }()})},
		{"a nil proof", VerifyRecordAbsent(root, []byte("acks/"), 4, nil)},
		{"a negative depth", VerifyRecordAbsent(root, []byte("acks/"), 4, &RecordProof{Depth: -1})},
	} {
		if !errors.Is(c.err, ErrProofInvalid) {
			t.Errorf("%s: %v, want ErrProofInvalid", c.name, c.err)
		}
	}
}

// FuzzArrayTree applies blocks of writes and deletes decoded from the
// input, read in (op, index) pairs: op%4 == 0 applies the block, 1
// deletes (often an empty position), the rest set a fresh value. Indices
// span 0..95, across three powers of two, in any order and repeated
// within a block. After each block the roots, depth, live prefix and
// every path must be the full rebuild's (merkle.HashLeaves over the
// dense leaf array), and each position's two-level proof under a state
// tree must verify its value or its absence, and not the other.
func FuzzArrayTree(f *testing.F) {
	f.Add([]byte{2, 1, 2, 2, 0, 0, 1, 1, 0, 0, 2, 70, 0, 0, 1, 70, 1, 95, 0, 0})
	f.Add([]byte{1, 5, 0, 0, 2, 5, 1, 5, 2, 5, 0, 0, 2, 0, 0, 0})
	f.Add([]byte{2, 64, 2, 3, 2, 64, 1, 3, 2, 31, 2, 32, 0, 0, 2, 33})
	f.Fuzz(func(t *testing.T, data []byte) {
		a := new(ArrayTree)
		model := map[uint64][]byte{}
		hi, applied := uint64(0), false
		var block []ArrayEdit
		flush := func() {
			for _, e := range block { // in input order: the last edit of an index wins
				if e.Delete {
					delete(model, e.Index)
				} else {
					model[e.Index] = e.Value
				}
				hi, applied = max(hi, e.Index), true
			}
			a.Apply(block)
			block = block[:0]
			if !applied {
				if a.Root() != HashLeaves(nil) {
					t.Fatal("no edit yet, but not the empty root")
				}
				return
			}
			checkArray(t, a, model, hi)
			st := twoLevel(map[string][]byte{"k": []byte("v")}, map[string]*ArrayTree{"t/": a})
			for i := uint64(0); i <= 2*hi+1; i++ {
				p := recordProof(st, "t/", a, i)
				v, present := model[i]
				in, out := VerifyRecord(st.Root(), []byte("t/"), i, v, p), VerifyRecordAbsent(st.Root(), []byte("t/"), i, p)
				if present && (in != nil || out == nil) || !present && (out != nil || in == nil) {
					t.Fatalf("index %d (present %v): membership %v, absence %v", i, present, in, out)
				}
			}
		}
		for i := 0; i+1 < len(data); i += 2 {
			switch op, idx := data[i]%4, uint64(data[i+1]%96); op {
			case 0:
				flush()
			case 1:
				block = append(block, ArrayEdit{Index: idx, Delete: true})
			default:
				block = append(block, ArrayEdit{Index: idx, Value: fmt.Appendf(nil, "v%d", i)})
			}
		}
		flush()
	})
}
