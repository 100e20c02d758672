package merkle

import (
	"fmt"
	"math/rand"
	"reflect"
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

func TestIncTreeServesProofs(t *testing.T) {
	inc := NewIncTree()
	kv := make(map[string][]byte)
	var edits []Edit
	for i := 0; i < 37; i++ {
		k, v := fmt.Sprintf("key%02d", i), []byte(fmt.Sprintf("val%d", i))
		kv[k] = v
		edits = append(edits, Edit{Key: k, Value: v})
	}
	root := inc.Apply(edits)
	if inc.Root() != root {
		t.Fatal("live root mismatch")
	}
	v, mp, ok := inc.ProveMembership([]byte("key17"))
	if !ok || string(v) != "val17" {
		t.Fatalf("membership proof: ok=%v v=%q", ok, v)
	}
	if err := VerifyMembership(root, []byte("key17"), v, mp); err != nil {
		t.Fatal(err)
	}
	nm, ok := inc.ProveNonMembership([]byte("key17x"))
	if !ok {
		t.Fatal("non-membership proof failed")
	}
	if err := VerifyNonMembership(root, []byte("key17x"), nm); err != nil {
		t.Fatal(err)
	}
	// A proof copies its siblings: rewriting the live arrays under it
	// must not invalidate it against the root it was taken at.
	root2 := inc.Apply([]Edit{{Key: "key17", Value: []byte("overwritten")}, {Key: "aaa", Value: []byte("new")}})
	if err := VerifyMembership(root, []byte("key17"), v, mp); err != nil {
		t.Fatalf("proof invalidated by later Apply: %v", err)
	}
	if err := VerifyNonMembership(root, []byte("key17x"), nm); err != nil {
		t.Fatalf("absence proof invalidated by later Apply: %v", err)
	}
	v2, mp2, _ := inc.ProveMembership([]byte("key17"))
	if err := VerifyMembership(root2, []byte("key17"), v2, mp2); err != nil || string(v2) != "overwritten" {
		t.Fatalf("proof after Apply: value %q, %v", v2, err)
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

// FuzzIncTreeApply drives IncTree with batches decoded from the input
// and checks it against the full-rebuild reference after every batch:
// its root and every proof it serves from the live arrays, and that a
// repeated membership proof is the one it served first.
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
		var before []proved
		beforeRoot := inc.Root()
		flush := func() {
			applyRef(model, batch) // before Apply re-sorts the batch
			root := inc.Apply(batch)
			batch = batch[:0]
			if want := NewTree(model).Root(); root != want {
				t.Fatalf("root %x != full rebuild %x (n=%d)", root, want, len(model))
			}
			// The proofs taken before the batch share nothing with the
			// live arrays the batch just rewrote.
			verifyProofs(t, beforeRoot, before)
			before, beforeRoot = checkProofs(t, inc, model), root
			for _, p := range before {
				if _, again, _ := inc.ProveMembership([]byte(p.key)); p.mp != nil && again != p.mp {
					t.Fatalf("key %q: a repeated proof is a new one", p.key)
				}
			}
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

// proved is one proof a tree served: a membership proof of key's value,
// or a non-membership proof of key.
type proved struct {
	key   string
	value []byte
	mp    *MembershipProof
	nm    *NonMembershipProof
}

// prover is the proof surface checkProofs reads: a Tree, or an IncTree
// with its remembered membership proofs.
type prover interface {
	Len() int
	Root() Hash
	ProveMembership(key []byte) ([]byte, *MembershipProof, bool)
	ProveNonMembership(key []byte) (*NonMembershipProof, bool)
}

// checkProofs compares tree with NewTree(model): a membership proof for
// every key of model, and a non-membership proof for the gap after each
// key and for both ends of the key space, must equal the full rebuild's
// and verify against the root. It returns the proofs.
func checkProofs(t *testing.T, tree prover, model map[string][]byte) []proved {
	t.Helper()
	ref := NewTree(model)
	if tree.Len() != ref.Len() || tree.Root() != ref.Root() {
		t.Fatalf("tree has %d leaves, root %x; full rebuild %d, %x", tree.Len(), tree.Root(), ref.Len(), ref.Root())
	}
	var out []proved
	absent := []string{"a", "z"}
	for k, want := range model {
		v, p, ok := tree.ProveMembership([]byte(k))
		_, wantP, _ := ref.ProveMembership([]byte(k))
		if !ok || string(v) != string(want) || !reflect.DeepEqual(p, wantP) {
			t.Fatalf("key %q: ok=%v value %q proof %+v, full rebuild %q %+v", k, ok, v, p, want, wantP)
		}
		out = append(out, proved{key: k, value: v, mp: p})
		absent = append(absent, k+"!")
	}
	for _, k := range absent {
		p, ok := tree.ProveNonMembership([]byte(k))
		wantP, _ := ref.ProveNonMembership([]byte(k))
		if !ok || !reflect.DeepEqual(p, wantP) {
			t.Fatalf("absent key %q: ok=%v proof %+v, full rebuild %+v", k, ok, p, wantP)
		}
		out = append(out, proved{key: k, nm: p})
	}
	verifyProofs(t, tree.Root(), out)
	return out
}

// verifyProofs checks every proof against root.
func verifyProofs(t *testing.T, root Hash, proofs []proved) {
	t.Helper()
	for _, p := range proofs {
		if p.mp != nil {
			if err := VerifyMembership(root, []byte(p.key), p.value, p.mp); err != nil {
				t.Fatalf("membership of %q: %v", p.key, err)
			}
		} else if err := VerifyNonMembership(root, []byte(p.key), p.nm); err != nil {
			t.Fatalf("non-membership of %q: %v", p.key, err)
		}
	}
}
