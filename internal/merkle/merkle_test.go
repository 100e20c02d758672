package merkle

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"
	"testing/quick"
)

func kvFixture(n int) map[string][]byte {
	kv := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		kv[fmt.Sprintf("key/%04d", i)] = []byte(fmt.Sprintf("value-%d", i))
	}
	return kv
}

func TestEmptyTree(t *testing.T) {
	tr := NewTree(nil)
	if tr.Len() != 0 {
		t.Fatalf("len = %d", tr.Len())
	}
	p, ok := tr.ProveNonMembership([]byte("anything"))
	if !ok {
		t.Fatal("empty tree could not prove absence")
	}
	if err := VerifyNonMembership(tr.Root(), []byte("anything"), p); err != nil {
		t.Fatalf("verify absence in empty tree: %v", err)
	}
}

// HashLeaves folds one padded copy in place; it must give the top of
// the level-by-level build for every leaf count across several powers of
// two, with the pad leaf also among the real leaves (as an ArrayTree's
// empty slots are), and make that copy its one allocation.
func TestHashLeavesIsTopOfLevels(t *testing.T) {
	if got := HashLeaves(nil); got != emptyRoot {
		t.Fatalf("no leaves: %x, want the empty root", got)
	}
	for n := 1; n <= 65; n++ {
		leaves := make([]Hash, n)
		for i := range leaves {
			leaves[i] = sha256.Sum256(binary.BigEndian.AppendUint64(nil, uint64(i)))
			if i%3 == 2 {
				leaves[i] = padLeaf
			}
		}
		kept := append([]Hash(nil), leaves...)
		lv := buildLevels(leaves)
		if got, want := HashLeaves(leaves), lv[len(lv)-1][0]; got != want {
			t.Fatalf("%d leaves: %x, top of levels %x", n, got, want)
		}
		for i := range leaves {
			if leaves[i] != kept[i] {
				t.Fatalf("%d leaves: leaf %d overwritten", n, i)
			}
		}
		if allocs := testing.AllocsPerRun(5, func() { HashLeaves(leaves) }); allocs != 1 {
			t.Fatalf("%d leaves: %.0f allocations, want 1", n, allocs)
		}
	}
}

func TestSingleLeaf(t *testing.T) {
	tr := NewTree(map[string][]byte{"k": []byte("v")})
	v, p, ok := tr.ProveMembership([]byte("k"))
	if !ok || string(v) != "v" {
		t.Fatalf("prove membership: ok=%v v=%q", ok, v)
	}
	if err := VerifyMembership(tr.Root(), []byte("k"), []byte("v"), p); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if err := VerifyMembership(tr.Root(), []byte("k"), []byte("x"), p); err == nil {
		t.Fatal("verified wrong value")
	}
}

func TestMembershipAllKeys(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 17, 100} {
		kv := kvFixture(n)
		tr := NewTree(kv)
		for k, want := range kv {
			v, p, ok := tr.ProveMembership([]byte(k))
			if !ok {
				t.Fatalf("n=%d key %q not provable", n, k)
			}
			if string(v) != string(want) {
				t.Fatalf("value mismatch for %q", k)
			}
			if err := VerifyMembership(tr.Root(), []byte(k), want, p); err != nil {
				t.Fatalf("n=%d verify %q: %v", n, k, err)
			}
		}
	}
}

func TestMembershipRejectsTamper(t *testing.T) {
	tr := NewTree(kvFixture(10))
	v, p, _ := tr.ProveMembership([]byte("key/0003"))
	// Wrong key.
	if err := VerifyMembership(tr.Root(), []byte("key/0004"), v, p); err == nil {
		t.Fatal("verified wrong key")
	}
	// Wrong value.
	if err := VerifyMembership(tr.Root(), []byte("key/0003"), []byte("evil"), p); err == nil {
		t.Fatal("verified wrong value")
	}
	// Tampered path.
	p.Path[0].Sibling[0] ^= 1
	if err := VerifyMembership(tr.Root(), []byte("key/0003"), v, p); err == nil {
		t.Fatal("verified tampered path")
	}
	// Nil proof.
	if err := VerifyMembership(tr.Root(), []byte("key/0003"), v, nil); err == nil {
		t.Fatal("verified nil proof")
	}
}

func TestNonMembership(t *testing.T) {
	kv := kvFixture(10)
	tr := NewTree(kv)
	cases := []string{
		"aaa",          // before all keys
		"key/0003x",    // between 0003 and 0004
		"key/00035",    // between
		"zzz",          // after all keys
		"key/",         // before first
		"key/0009zzzz", // after last
	}
	for _, k := range cases {
		p, ok := tr.ProveNonMembership([]byte(k))
		if !ok {
			t.Fatalf("could not prove absence of %q", k)
		}
		if err := VerifyNonMembership(tr.Root(), []byte(k), p); err != nil {
			t.Fatalf("verify absence of %q: %v", k, err)
		}
	}
	// Present key must not be provable absent.
	if _, ok := tr.ProveNonMembership([]byte("key/0005")); ok {
		t.Fatal("proved absence of present key")
	}
}

func TestNonMembershipRejectsForgery(t *testing.T) {
	tr := NewTree(kvFixture(10))
	p, _ := tr.ProveNonMembership([]byte("key/0005x"))
	// Using the proof for a key outside the (left, right) interval fails.
	if err := VerifyNonMembership(tr.Root(), []byte("key/0007x"), p); err == nil {
		t.Fatal("absence proof accepted for wrong key")
	}
	// A proof with non-adjacent neighbours fails.
	p2, _ := tr.ProveNonMembership([]byte("key/0005x"))
	_, lp, _ := tr.ProveMembership([]byte("key/0003"))
	p2.LeftKey = []byte("key/0003")
	p2.LeftValue = []byte("value-3")
	p2.LeftProof = lp
	if err := VerifyNonMembership(tr.Root(), []byte("key/0005x"), p2); err == nil {
		t.Fatal("accepted non-adjacent neighbours")
	}
}

func TestRootChangesWithContent(t *testing.T) {
	a := NewTree(map[string][]byte{"k1": []byte("v1"), "k2": []byte("v2")})
	b := NewTree(map[string][]byte{"k1": []byte("v1"), "k2": []byte("v2!")})
	c := NewTree(map[string][]byte{"k1": []byte("v1")})
	if a.Root() == b.Root() {
		t.Fatal("value change did not change root")
	}
	if a.Root() == c.Root() {
		t.Fatal("key removal did not change root")
	}
	a2 := NewTree(map[string][]byte{"k2": []byte("v2"), "k1": []byte("v1")})
	if a.Root() != a2.Root() {
		t.Fatal("root depends on map iteration order")
	}
}

func TestLeafInnerDomainSeparation(t *testing.T) {
	l := LeafHash([]byte("a"), []byte("b"))
	i := InnerHash(l, l)
	if l == i {
		t.Fatal("leaf and inner hashes collide")
	}
	// Length prefixing: ("ab","c") != ("a","bc").
	if LeafHash([]byte("ab"), []byte("c")) == LeafHash([]byte("a"), []byte("bc")) {
		t.Fatal("length-prefix ambiguity")
	}
}

func TestGet(t *testing.T) {
	tr := NewTree(kvFixture(5))
	if v, ok := tr.Get([]byte("key/0002")); !ok || string(v) != "value-2" {
		t.Fatalf("get = %q, %v", v, ok)
	}
	if _, ok := tr.Get([]byte("missing")); ok {
		t.Fatal("found missing key")
	}
}

// Property: every key in a random snapshot has a verifiable membership
// proof, and random absent keys have verifiable non-membership proofs.
func TestProofSoundnessProperty(t *testing.T) {
	prop := func(keys []string, probe string) bool {
		kv := make(map[string][]byte, len(keys))
		for i, k := range keys {
			kv["k:"+k] = []byte(fmt.Sprintf("v%d", i))
		}
		tr := NewTree(kv)
		for k, v := range kv {
			got, p, ok := tr.ProveMembership([]byte(k))
			if !ok || string(got) != string(v) {
				return false
			}
			if VerifyMembership(tr.Root(), []byte(k), v, p) != nil {
				return false
			}
		}
		probeKey := "absent:" + probe
		if _, present := kv[probeKey]; !present {
			p, ok := tr.ProveNonMembership([]byte(probeKey))
			if !ok {
				return false
			}
			if VerifyNonMembership(tr.Root(), []byte(probeKey), p) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: a membership proof never verifies against the root of a tree
// whose value for the key differs.
func TestProofBindingProperty(t *testing.T) {
	prop := func(n uint8, mutate uint8) bool {
		size := int(n%32) + 2
		kv := kvFixture(size)
		tr := NewTree(kv)
		target := fmt.Sprintf("key/%04d", int(mutate)%size)
		v, p, ok := tr.ProveMembership([]byte(target))
		if !ok {
			return false
		}
		kv[target] = append([]byte(nil), v...)
		kv[target] = append(kv[target], 'X')
		tr2 := NewTree(kv)
		return VerifyMembership(tr2.Root(), []byte(target), v, p) != nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// streamingLeafHash and streamingInnerHash are the sha256.New()
// constructions LeafHash and InnerHash had before they assembled their
// preimage in a stack buffer.
func streamingLeafHash(key, value []byte) (out Hash) {
	h := sha256.New()
	h.Write([]byte{leafPrefix})
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(key)))
	h.Write(n[:])
	h.Write(key)
	binary.BigEndian.PutUint64(n[:], uint64(len(value)))
	h.Write(n[:])
	h.Write(value)
	h.Sum(out[:0])
	return out
}

func streamingInnerHash(left, right Hash) (out Hash) {
	h := sha256.New()
	h.Write([]byte{innerPrefix})
	h.Write(left[:])
	h.Write(right[:])
	h.Sum(out[:0])
	return out
}

// TestHashMatchesStreamingSHA256 sweeps key and value lengths 0…1024
// (across the stack buffer's size, in both fields) and checks every
// digest, for []byte and string keys, against the streaming
// construction.
func TestHashMatchesStreamingSHA256(t *testing.T) {
	blob := make([]byte, 2048)
	for i := range blob {
		blob[i] = byte(i*7 + i>>8)
	}
	check := func(kl, vl int) {
		key, value := blob[:kl], blob[1024:1024+vl]
		want := streamingLeafHash(key, value)
		if got := LeafHash(key, value); got != want {
			t.Fatalf("LeafHash(key %d B, value %d B) = %x, streaming %x", kl, vl, got, want)
		}
		if got := leafHash(string(key), value); got != want {
			t.Fatalf("leafHash(string key %d B, value %d B) = %x, streaming %x", kl, vl, got, want)
		}
	}
	for n := 0; n <= 1024; n++ {
		for _, m := range []int{0, 1, 32, 150, 175, 1024} {
			check(n, m)
			check(m, n)
		}
	}
	var l, r Hash
	for i := 0; i < 64; i++ {
		l, r = LeafHash(blob[:i], nil), LeafHash(nil, blob[:i])
		if got, want := InnerHash(l, r), streamingInnerHash(l, r); got != want {
			t.Fatalf("InnerHash #%d = %x, streaming %x", i, got, want)
		}
	}
}

var hashSink Hash // keeps the measured calls from being optimised away

// TestHashAndProofAllocs pins what the hot path may allocate: nothing
// to hash an inner node or a packet-commitment-sized leaf, and only the
// proof and its path to prove a key.
func TestHashAndProofAllocs(t *testing.T) {
	l, r := LeafHash([]byte("l"), nil), LeafHash([]byte("r"), nil)
	if got := testing.AllocsPerRun(100, func() { hashSink = InnerHash(l, r) }); got != 0 {
		t.Errorf("InnerHash: %.0f allocations, want 0", got)
	}
	key := "commitments/ports/transfer/channels/channel-12/sequences/1234567"
	commitment := make([]byte, sha256.Size)
	if got := testing.AllocsPerRun(100, func() { hashSink = leafHash(key, commitment) }); got != 0 {
		t.Errorf("leafHash(%d B string key, 32 B value): %.0f allocations, want 0", len(key), got)
	}
	keyBytes := []byte(key)
	if got := testing.AllocsPerRun(100, func() { hashSink = LeafHash(keyBytes, commitment) }); got != 0 {
		t.Errorf("LeafHash(%d B key, 32 B value): %.0f allocations, want 0", len(key), got)
	}
	kv := kvFixture(1000)
	kv[key] = commitment
	tr := NewTree(kv)
	if got := testing.AllocsPerRun(100, func() { tr.ProveMembership(keyBytes) }); got > 2 {
		t.Errorf("ProveMembership(%d B key): %.0f allocations, want <= 2", len(keyBytes), got)
	}
}
