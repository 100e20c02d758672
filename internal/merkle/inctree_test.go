package merkle

import (
	"fmt"
	"math/rand"
	"testing"
)

// applyRef mirrors Apply on a plain map for cross-checking.
func applyRef(ref map[string][]byte, edits []Edit) {
	for _, e := range edits {
		if e.Delete {
			delete(ref, e.Key)
		} else {
			ref[e.Key] = e.Value
		}
	}
}

func TestIncTreeMatchesFullRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	inc := NewIncTree()
	ref := make(map[string][]byte)
	for step := 0; step < 200; step++ {
		var edits []Edit
		n := 1 + rng.Intn(8)
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("k%03d", rng.Intn(300))
			switch rng.Intn(4) {
			case 0: // delete (often of an absent key early on)
				edits = append(edits, Edit{Key: key, Delete: true})
			default:
				edits = append(edits, Edit{Key: key, Value: []byte(fmt.Sprintf("v%d-%d", step, i))})
			}
		}
		got := inc.Apply(edits)
		applyRef(ref, edits)
		want := NewTree(ref).Root()
		if got != want {
			t.Fatalf("step %d: incremental root %x != full rebuild %x (n=%d)", step, got, want, len(ref))
		}
		if inc.Len() != len(ref) {
			t.Fatalf("step %d: len %d != %d", step, inc.Len(), len(ref))
		}
	}
}

func TestIncTreeDuplicateKeysLastWriterWins(t *testing.T) {
	// A large batch (beyond the stable insertion-sort threshold) with
	// set-then-delete and delete-then-set pairs on the same keys must
	// apply in input order.
	var edits []Edit
	for i := 0; i < 10; i++ {
		edits = append(edits, Edit{Key: fmt.Sprintf("pad%02d", i), Value: []byte("p")})
	}
	edits = append(edits,
		Edit{Key: "dup-a", Value: []byte("first")},
		Edit{Key: "dup-b", Delete: true},
		Edit{Key: "dup-a", Delete: true},            // last writer: deleted
		Edit{Key: "dup-b", Value: []byte("second")}, // last writer: present
	)
	inc := NewIncTree()
	got := inc.Apply(edits)
	want := make(map[string][]byte)
	applyRef(want, edits)
	if _, ok := want["dup-a"]; ok {
		t.Fatal("reference model broken")
	}
	if root := NewTree(want).Root(); got != root {
		t.Fatalf("duplicate-key batch root %x != last-writer-wins root %x", got, root)
	}
}

func TestIncTreeEmptyAndSingle(t *testing.T) {
	inc := NewIncTree()
	if inc.Root() != NewTree(nil).Root() {
		t.Fatal("empty roots differ")
	}
	if got := inc.Apply(nil); got != NewTree(nil).Root() {
		t.Fatalf("apply(nil) root = %x", got)
	}
	// Delete of an absent key on the empty tree is a no-op.
	if got := inc.Apply([]Edit{{Key: "nope", Delete: true}}); got != NewTree(nil).Root() {
		t.Fatalf("no-op delete root = %x", got)
	}
	one := map[string][]byte{"a": []byte("1")}
	if got := inc.Apply([]Edit{{Key: "a", Value: []byte("1")}}); got != NewTree(one).Root() {
		t.Fatal("single-leaf root mismatch")
	}
	// Back to empty: delete the only leaf.
	if got := inc.Apply([]Edit{{Key: "a", Delete: true}}); got != NewTree(nil).Root() {
		t.Fatal("root after deleting last leaf != empty root")
	}
}

func TestIncTreeSnapshotServesProofs(t *testing.T) {
	inc := NewIncTree()
	kv := make(map[string][]byte)
	var edits []Edit
	for i := 0; i < 37; i++ {
		k, v := fmt.Sprintf("key%02d", i), []byte(fmt.Sprintf("val%d", i))
		kv[k] = v
		edits = append(edits, Edit{Key: k, Value: v})
	}
	root := inc.Apply(edits)
	snap := inc.Snapshot()
	if snap.Root() != root {
		t.Fatal("snapshot root mismatch")
	}
	v, mp, ok := snap.ProveMembership("key17")
	if !ok || string(v) != "val17" {
		t.Fatalf("membership proof: ok=%v v=%q", ok, v)
	}
	if err := VerifyMembership(root, []byte("key17"), v, mp); err != nil {
		t.Fatal(err)
	}
	nm, ok := snap.ProveNonMembership("key17x")
	if !ok {
		t.Fatal("non-membership proof failed")
	}
	if err := VerifyNonMembership(root, []byte("key17x"), nm); err != nil {
		t.Fatal(err)
	}
	// Mutating the live tree must not invalidate the snapshot's proofs.
	inc.Apply([]Edit{{Key: "key17", Value: []byte("overwritten")}, {Key: "aaa", Value: []byte("new")}})
	if err := VerifyMembership(root, []byte("key17"), v, mp); err != nil {
		t.Fatalf("snapshot proof invalidated by later Apply: %v", err)
	}
}

// seededIncTree returns a tree of n "key/%05d" leaves built in one block.
func seededIncTree(n int) *IncTree {
	inc := NewIncTree()
	edits := make([]Edit, n)
	for i := range edits {
		edits[i] = Edit{Key: fmt.Sprintf("key/%05d", i), Value: []byte("v")}
	}
	inc.Apply(edits)
	return inc
}

// spreadInserts returns d new keys spread evenly over a tree of n
// "key/%05d" leaves (each sorts right after an existing key).
func spreadInserts(n, d, block int) []Edit {
	edits := make([]Edit, d)
	for i := range edits {
		edits[i] = Edit{Key: fmt.Sprintf("key/%05d/%d", i*(n/d), block), Value: []byte("c")}
	}
	return edits
}

// TestApplyMovesAreLinear pins the merge pass: a block of d spread
// inserts (then d spread deletes) over n leaves shifts each leaf at most
// once per direction — O(n + d) element moves, where one shift of the
// sorted suffix per edit was O(n·d).
func TestApplyMovesAreLinear(t *testing.T) {
	const n = 4096
	for _, d := range []int{16, 256} {
		inc := seededIncTree(n)
		if inc.moves != 0 {
			t.Fatalf("building from empty moved %d leaves", inc.moves)
		}
		inc.Apply(spreadInserts(n, d, 0))
		if inc.moves > n {
			t.Fatalf("d=%d inserts over n=%d moved %d leaves, want <= n", d, n, inc.moves)
		}
		inc.moves = 0
		mixed := spreadInserts(n, d, 1)
		for _, e := range spreadInserts(n, d, 0) {
			mixed = append(mixed, Edit{Key: e.Key, Delete: true})
		}
		inc.Apply(mixed)
		if inc.moves > 2*(n+d) {
			t.Fatalf("d=%d inserts+deletes over n=%d moved %d leaves, want <= 2(n+d)", d, n, inc.moves)
		}
	}
}

// TestSnapshotAllocsPerLevel pins Snapshot to one allocation per level
// plus the Tree, its key and value arrays and the level table — never
// one per key.
func TestSnapshotAllocsPerLevel(t *testing.T) {
	for _, n := range []int{100, 3000} {
		inc := seededIncTree(n)
		want := float64(len(inc.levels) + 4)
		if got := testing.AllocsPerRun(20, func() { inc.Snapshot() }); got > want {
			t.Fatalf("n=%d: Snapshot took %.0f allocations, want <= %.0f (levels + 4)", n, got, want)
		}
	}
}

// FuzzIncTreeApply drives IncTree with batches decoded from the input
// and checks it against the full-rebuild reference after every batch.
// Input bytes are read in (op, key) pairs: op%4 == 0 ends the batch (so
// empty batches occur), 3 deletes (often an absent key), 1 and 2 set;
// the 48-key space makes updates, duplicate keys within a batch and
// growth and shrink across 16 and 32 leaves routine.
func FuzzIncTreeApply(f *testing.F) {
	var grow, shrink []byte
	for k := byte(0); k < 40; k++ {
		grow = append(grow, 1, k)
		shrink = append(shrink, 3, k)
	}
	f.Add(append(append(append([]byte{}, grow...), 0, 0), shrink...))             // past 32 leaves and back to empty
	f.Add(append(append([]byte{}, grow[:32]...), 0, 0, 1, 30, 0, 0, 3, 2, 3, 45)) // 16 leaves, a 17th, back to 16 + absent delete
	f.Add([]byte{1, 5, 3, 5, 1, 5, 0, 0, 0, 0, 3, 5, 1, 5, 3, 5})                 // duplicate keys, empty batch
	f.Add([]byte{3, 9, 0, 0, 2, 9, 2, 9})                                         // delete on the empty tree, unterminated batch

	key := func(b byte) string { return fmt.Sprintf("k%02d", b%48) }
	f.Fuzz(func(t *testing.T, data []byte) {
		inc := NewIncTree()
		model := make(map[string][]byte)
		var batch []Edit
		flush := func() {
			before, beforeModel := inc.Snapshot(), make(map[string][]byte, len(model))
			for k, v := range model {
				beforeModel[k] = v
			}
			applyRef(model, batch) // before Apply re-sorts the batch
			root := inc.Apply(batch)
			batch = batch[:0]
			if want := NewTree(model).Root(); root != want {
				t.Fatalf("root %x != full rebuild %x (n=%d)", root, want, len(model))
			}
			// The snapshot taken before the batch shares nothing with the
			// live arrays the batch just rewrote.
			checkProofs(t, before, beforeModel)
			checkProofs(t, inc.Snapshot(), model)
		}
		for i := 0; i+1 < len(data); i += 2 {
			switch op, k := data[i]%4, key(data[i+1]); op {
			case 0:
				flush()
			case 3:
				batch = append(batch, Edit{Key: k, Delete: true})
			default:
				batch = append(batch, Edit{Key: k, Value: []byte(fmt.Sprintf("v%d", i))})
			}
		}
		flush()
	})
}

// checkProofs verifies, against the snapshot's own root, a membership
// proof for every key of model and a non-membership proof for the gap
// after each key and for both ends of the key space.
func checkProofs(t *testing.T, snap *Tree, model map[string][]byte) {
	t.Helper()
	if snap.Len() != len(model) {
		t.Fatalf("snapshot has %d leaves, model %d", snap.Len(), len(model))
	}
	absent := []string{"a", "z"}
	for k, want := range model {
		v, p, ok := snap.ProveMembership(k)
		if !ok || string(v) != string(want) {
			t.Fatalf("key %q: ok=%v value %q, want %q", k, ok, v, want)
		}
		if err := VerifyMembership(snap.Root(), []byte(k), v, p); err != nil {
			t.Fatalf("membership of %q: %v", k, err)
		}
		absent = append(absent, k+"!")
	}
	for _, k := range absent {
		p, ok := snap.ProveNonMembership(k)
		if !ok {
			t.Fatalf("absent key %q not provable", k)
		}
		if err := VerifyNonMembership(snap.Root(), []byte(k), p); err != nil {
			t.Fatalf("non-membership of %q: %v", k, err)
		}
	}
}
