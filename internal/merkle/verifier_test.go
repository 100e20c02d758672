package merkle

import (
	"fmt"
	"testing"
)

// clone copies a proof so a mutation leaves the original alone.
func clone(p *MembershipProof) *MembershipProof {
	c := *p
	c.Path = append([]PathStep(nil), p.Path...)
	return &c
}

func TestVerifierRejectsWhatVerifyMembershipRejects(t *testing.T) {
	tr := NewTree(kvFixture(100))
	other := kvFixture(100)
	other["key/0099"] = []byte("changed")
	otherRoot := NewTree(other).Root()

	var v Verifier
	value, remembered, _ := tr.ProveMembership([]byte("key/0040"))
	if err := v.VerifyMembership(tr.Root(), []byte("key/0040"), value, remembered); err != nil {
		t.Fatalf("genuine proof: %v", err)
	}
	// key/0041 is leaf 41: its position meets leaf 40's at level 1, so
	// its genuine proof stops there.
	key := []byte("key/0041")
	value, genuine, _ := tr.ProveMembership(key)
	const meet = 1
	for _, c := range []struct {
		name  string
		root  Hash
		value []byte
		edit  func(p *MembershipProof) *MembershipProof
	}{
		{"sibling flipped below the meeting level", tr.Root(), value, func(p *MembershipProof) *MembershipProof {
			p.Path[meet-1].Sibling[0] ^= 1
			return p
		}},
		{"sibling flipped above the meeting level", tr.Root(), value, func(p *MembershipProof) *MembershipProof {
			p.Path[meet+2].Sibling[31] ^= 0x80
			return p
		}},
		{"top sibling flipped", tr.Root(), value, func(p *MembershipProof) *MembershipProof {
			p.Path[len(p.Path)-1].Sibling[5] ^= 4
			return p
		}},
		{"wrong value", tr.Root(), []byte("evil"), func(p *MembershipProof) *MembershipProof { return p }},
		{"flipped direction flag", tr.Root(), value, func(p *MembershipProof) *MembershipProof {
			p.Path[meet+1].Left = !p.Path[meet+1].Left
			return p
		}},
		{"index and flag flipped together", tr.Root(), value, func(p *MembershipProof) *MembershipProof {
			p.Index ^= 1 << (meet + 1)
			p.Path[meet+1].Left = !p.Path[meet+1].Left
			return p
		}},
		{"another root", otherRoot, value, func(p *MembershipProof) *MembershipProof { return p }},
		{"one level shorter", tr.Root(), value, func(p *MembershipProof) *MembershipProof {
			p.Path = p.Path[:len(p.Path)-1]
			return p
		}},
		{"one level longer", tr.Root(), value, func(p *MembershipProof) *MembershipProof {
			p.Path = append(p.Path, PathStep{})
			return p
		}},
		{"nil proof", tr.Root(), value, func(*MembershipProof) *MembershipProof { return nil }},
	} {
		p := c.edit(clone(genuine))
		if err := VerifyMembership(c.root, key, c.value, p); err == nil {
			t.Fatalf("%s: VerifyMembership accepts it, the case tests nothing", c.name)
		}
		before := v
		if err := v.VerifyMembership(c.root, key, c.value, p); err == nil {
			t.Errorf("%s: the verifier accepts a proof VerifyMembership rejects", c.name)
		}
		if v != before {
			t.Errorf("%s: a rejected proof changed what the verifier remembers", c.name)
		}
	}
	if err := v.VerifyMembership(tr.Root(), key, value, genuine); err != nil {
		t.Fatalf("genuine proof after the rejections: %v", err)
	}
	if v.index != 41 || v.nodes[0] != LeafHash(key, value) || v.sibs[0] != genuine.Path[0].Sibling {
		t.Fatalf("an accepted proof that stopped early left index %d and its leaf level unremembered", v.index)
	}
}

// A proof longer than the verifier's arrays, or of a one-leaf tree, goes
// to the plain function.
func TestVerifierPlainPaths(t *testing.T) {
	tr := NewTree(map[string][]byte{"k": []byte("v")})
	_, p, _ := tr.ProveMembership([]byte("k"))
	var v Verifier
	for i := 0; i < 2; i++ {
		if err := v.VerifyMembership(tr.Root(), []byte("k"), []byte("v"), p); err != nil {
			t.Fatalf("one-leaf proof: %v", err)
		}
	}
	if err := v.VerifyMembership(tr.Root(), []byte("k"), []byte("x"), p); err == nil {
		t.Fatal("one-leaf proof of a wrong value accepted")
	}
	long := &MembershipProof{Path: make([]PathStep, verifierDepth+1)}
	root := RootFromProof(LeafHash([]byte("k"), []byte("v")), long.Path)
	if err := v.VerifyMembership(root, []byte("k"), []byte("v"), long); err != nil {
		t.Fatalf("a %d-level proof: %v", len(long.Path), err)
	}
	if v != (Verifier{}) {
		t.Fatal("the verifier remembered a path it does not handle")
	}
}

// FuzzVerifier runs one Verifier over a sequence of genuine and mutated
// proofs from three trees over the same keys (three roots, one of them
// possibly deeper), and holds every verdict to VerifyMembership's, or
// VerifyRecord's for a two-level proof. Each tree also holds the leaves
// of two record tables, so string-key and record proofs interleave in
// one Verifier. Input bytes are read in triples (tree and mutation, key
// or record, level); a level byte with its top bit set makes the triple
// a record proof (recordCase). A splice takes the sibling at one level
// from the previous key's proof, the forgery that reuses what the
// verifier saw last.
func FuzzVerifier(f *testing.F) {
	f.Add(byte(40), []byte{0, 3, 0, 0, 4, 0, 0, 5, 0, 1, 5, 2, 0, 5, 0})
	f.Add(byte(9), []byte{0, 0, 0, 0, 1, 0, 16, 1, 0, 2, 1, 0, 32, 1, 2, 3, 1, 1})
	f.Add(byte(40), []byte{0, 0, 0, 0, 1, 0, 24, 1, 0}) // k00, k01, then k01 with k00's level-0 sibling
	f.Add(byte(63), []byte{0, 10, 0, 4, 11, 3, 5, 12, 1, 6, 13, 0, 7, 14, 0, 8, 15, 2, 0, 14, 0})
	// Records of both tables between string keys: genuine runs, then a
	// spliced sibling, a wrong table and a deeper array.
	f.Add(byte(20), []byte{0, 2, 0x80, 0, 4, 0x80, 0, 6, 0x81, 0, 3, 0x80, 0, 0, 0, 24, 8, 0x80, 18, 4, 0x80, 21, 6, 0x82})
	f.Fuzz(func(t *testing.T, size byte, ops []byte) {
		n := 1 + int(size)%64
		kv := make(map[string][]byte, n)
		for i := 0; i < n; i++ {
			kv[fmt.Sprintf("k%02d", i)] = []byte{byte(i)}
		}
		// Two tables of m records at 1..m (position 0 empty), the second
		// one's last record deleted.
		m := 1 + int(size)%40
		var arrays [2]*ArrayTree
		for tb := range arrays {
			arrays[tb] = new(ArrayTree)
			var edits []ArrayEdit
			for s := 1; s <= m; s++ {
				edits = append(edits, ArrayEdit{Index: uint64(s), Value: []byte{byte(s), byte(tb)}, Delete: tb == 1 && s == m})
			}
			arrays[tb].Apply(edits)
			kv[fmt.Sprintf("t%d/", tb)] = AppendArrayValue(nil, arrays[tb].Depth(), arrays[tb].Root())
		}
		a := NewTree(kv)
		kv["k00"] = []byte("other")
		b := NewTree(kv)
		kv["zz"] = nil // one more leaf: a deeper tree when n is a power of two
		c := NewTree(kv)
		trees := [...]*Tree{a, b, c}

		var v Verifier
		for i := 0; i+2 < len(ops); i += 3 {
			if ops[i+2]&0x80 != 0 {
				recordCase(t, &v, trees[:], arrays, m, ops[i:i+3])
				continue
			}
			tree := trees[ops[i]%3]
			k := int(ops[i+1]) % n
			key := []byte(fmt.Sprintf("k%02d", k))
			value, p, _ := tree.ProveMembership(key)
			root := tree.Root()
			level := 0
			if len(p.Path) > 0 {
				level = int(ops[i+2]) % len(p.Path)
			}
			switch ops[i] / 3 % 9 {
			case 1:
				if len(p.Path) > 0 {
					p.Path[level].Sibling[ops[i+2]%32] ^= 1
				}
			case 2:
				if len(p.Path) > 0 {
					p.Path[level].Left = !p.Path[level].Left
				}
			case 3:
				value = []byte{ops[i+2]}
			case 4:
				root = trees[(ops[i]+1)%3].Root()
			case 5:
				if len(p.Path) > 0 {
					p.Path = p.Path[:len(p.Path)-1]
				}
			case 6:
				p.Index ^= 1 << level
			case 7:
				p.Path = append(p.Path, PathStep{Left: ops[i+2]%2 == 1})
			case 8:
				_, prev, _ := tree.ProveMembership([]byte(fmt.Sprintf("k%02d", (k+n-1)%n)))
				if level < len(prev.Path) {
					p.Path[level].Sibling = prev.Path[level].Sibling
				}
			}
			want := VerifyMembership(root, key, value, p)
			if got := v.VerifyMembership(root, key, value, p); got != want {
				t.Fatalf("op %d (key %s, index %d, %d levels): verifier says %v, VerifyMembership %v",
					i/3, key, p.Index, len(p.Path), got, want)
			}
		}
	})
}

// recordCase is one FuzzVerifier triple that verifies a record proof:
// record (op[1]/2)%(m+2) of table op[1]%2, from tree op[0]%3, mutated as
// op[0]/3%9 says at level op[2]&0x7f (modulo the path's length).
func recordCase(t *testing.T, v *Verifier, trees []*Tree, arrays [2]*ArrayTree, m int, op []byte) {
	t.Helper()
	tree, tb := trees[op[0]%3], int(op[1]%2)
	seq := uint64(op[1]/2) % uint64(m+2)
	prefix := []byte(fmt.Sprintf("t%d/", tb))
	p := recordProof(tree, string(prefix), arrays[tb], seq)
	p.Path = append([]PathStep(nil), p.Path...)
	value := []byte{byte(seq), byte(tb)}
	root := tree.Root()
	level := 0
	if len(p.Path) > 0 {
		level = int(op[2]&0x7f) % len(p.Path)
	}
	switch op[0] / 3 % 9 {
	case 1:
		if len(p.Path) > 0 {
			p.Path[level].Sibling[op[2]%32] ^= 1
		}
	case 2:
		if len(p.Path) > 0 {
			p.Path[level].Left = !p.Path[level].Left
		}
	case 3:
		value = []byte{op[2]}
	case 4:
		root = trees[(op[0]+1)%3].Root()
	case 5: // another position's proof
		seq ^= 1 << level
	case 6: // the other table's leaf
		_, p.Table, _ = tree.ProveMembership([]byte(fmt.Sprintf("t%d/", 1-tb)))
	case 7: // a deeper array claimed
		p.Path, p.Depth = append(p.Path, PathStep{Sibling: padNodes[p.Depth]}), p.Depth+1
	case 8: // a sibling spliced from the previous position's proof
		if prev, ok := arrays[tb].Prove(nil, seq-1); ok && level < min(len(prev), len(p.Path)) {
			p.Path[level].Sibling = prev[level].Sibling
		}
	}
	want := VerifyRecord(root, prefix, seq, value, p)
	if got := v.VerifyRecord(root, prefix, seq, value, p); got != want {
		t.Fatalf("record %d of table %d (%d levels): verifier says %v, VerifyRecord %v", seq, tb, len(p.Path), got, want)
	}
}
