package types

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"ibcbench/internal/valkey"
)

// testTx is a minimal Tx for the tendermint layer's unit tests.
type testTx struct {
	id  string
	gas uint64
}

func (t testTx) Hash() Hash        { return sha256.Sum256([]byte(t.id)) }
func (t testTx) Size() int         { return len(t.id) }
func (t testTx) GasWanted() uint64 { return t.gas }

func makeValSet(chainID string, n int) (*ValidatorSet, []*valkey.PrivKey) {
	vals := make([]*Validator, n)
	keys := make([]*valkey.PrivKey, n)
	for i := 0; i < n; i++ {
		k := valkey.Derive(chainID, i)
		keys[i] = k
		vals[i] = &Validator{
			Address:     k.Pub().Address(),
			PubKey:      k.Pub(),
			VotingPower: 10,
		}
	}
	return NewValidatorSet(vals), keys
}

func signCommit(chainID string, vs *ValidatorSet, keys []*valkey.PrivKey, blockID BlockID, height int64, signers int) *Commit {
	c := &Commit{Height: height, Round: 0, BlockID: blockID}
	for i, v := range vs.Validators {
		sig := CommitSig{ValidatorAddress: v.Address, Flag: BlockIDFlagAbsent}
		if i < signers {
			vote := &Vote{
				Type:             PrecommitType,
				Height:           height,
				Round:            0,
				BlockID:          blockID,
				ValidatorAddress: v.Address,
			}
			sig.Flag = BlockIDFlagCommit
			sig.Signature = keys[i].Sign(AppendVoteSignBytes(nil, chainID, vote))
		}
		c.Signatures = append(c.Signatures, sig)
	}
	return c
}

func TestHeaderHashSensitivity(t *testing.T) {
	h := Header{ChainID: "a", Height: 5, Time: time.Second}
	base := h.Hash()
	h2 := h
	h2.Height = 6
	if h2.Hash() == base {
		t.Fatal("height change did not alter header hash")
	}
	h3 := h
	h3.AppHash[0] = 1
	if h3.Hash() == base {
		t.Fatal("app hash change did not alter header hash")
	}
	h4 := h
	if h4.Hash() != base {
		t.Fatal("identical headers hash differently")
	}
}

func TestDataHashOrderDependence(t *testing.T) {
	a := []Tx{testTx{id: "1"}, testTx{id: "2"}}
	b := []Tx{testTx{id: "2"}, testTx{id: "1"}}
	if DataHash(a) == DataHash(b) {
		t.Fatal("data hash ignores tx order")
	}
	if DataHash(nil) != DataHash([]Tx{}) {
		t.Fatal("empty data hash unstable")
	}
}

func TestProposerRotation(t *testing.T) {
	vs, _ := makeValSet("c", 5)
	seen := make(map[string]int)
	for h := int64(1); h <= 10; h++ {
		p := vs.Proposer(h, 0)
		if p == nil {
			t.Fatal("no proposer")
		}
		seen[p.Address.String()]++
	}
	if len(seen) != 5 {
		t.Fatalf("rotation covered %d validators, want 5", len(seen))
	}
	// Round advance moves the proposer.
	if vs.Proposer(1, 0).Address == vs.Proposer(1, 1).Address {
		t.Fatal("round change kept the same proposer")
	}
}

func TestVerifyCommitQuorum(t *testing.T) {
	const chainID = "chain-a"
	vs, keys := makeValSet(chainID, 5)
	blockID := BlockID{Hash: sha256.Sum256([]byte("block"))}

	// 4 of 5 (80% > 2/3) passes.
	c := signCommit(chainID, vs, keys, blockID, 7, 4)
	if err := vs.VerifyCommit(chainID, blockID, 7, c); err != nil {
		t.Fatalf("quorum commit rejected: %v", err)
	}
	// Exactly 2/3 does NOT pass (need strictly more).
	vs3, keys3 := makeValSet(chainID, 3)
	c3 := signCommit(chainID, vs3, keys3, blockID, 7, 2)
	if err := vs3.VerifyCommit(chainID, blockID, 7, c3); err != ErrInsufficientPower {
		t.Fatalf("2/3 exactly: err = %v, want ErrInsufficientPower", err)
	}
	// 3 of 5 fails.
	c = signCommit(chainID, vs, keys, blockID, 7, 3)
	if err := vs.VerifyCommit(chainID, blockID, 7, c); err != ErrInsufficientPower {
		t.Fatalf("err = %v, want ErrInsufficientPower", err)
	}
}

func TestVerifyCommitRejectsForgery(t *testing.T) {
	const chainID = "chain-a"
	vs, keys := makeValSet(chainID, 5)
	blockID := BlockID{Hash: sha256.Sum256([]byte("block"))}
	good := signCommit(chainID, vs, keys, blockID, 7, 4)

	// Wrong height.
	if err := vs.VerifyCommit(chainID, blockID, 8, good); err != ErrCommitHeightMismatch {
		t.Fatalf("wrong height: %v", err)
	}
	// Wrong block.
	other := BlockID{Hash: sha256.Sum256([]byte("other"))}
	if err := vs.VerifyCommit(chainID, other, 7, good); err != ErrCommitWrongBlockID {
		t.Fatalf("wrong block: %v", err)
	}
	// Commit signed for a different chain ID must not verify.
	foreign := signCommit("chain-b", vs, keys, blockID, 7, 4)
	if err := vs.VerifyCommit(chainID, blockID, 7, foreign); err == nil {
		t.Fatal("cross-chain replayed commit accepted")
	}
	// Duplicate signatures must not double-count power.
	dup := signCommit(chainID, vs, keys, blockID, 7, 3)
	dup.Signatures = append(dup.Signatures, dup.Signatures[0], dup.Signatures[1])
	if err := vs.VerifyCommit(chainID, blockID, 7, dup); err != ErrInsufficientPower {
		t.Fatalf("duplicated signatures inflated power: %v", err)
	}
	// Unknown validator signatures contribute nothing.
	stranger := valkey.Derive("stranger", 0)
	sc := signCommit(chainID, vs, keys, blockID, 7, 3)
	vote := &Vote{Type: PrecommitType, Height: 7, BlockID: blockID, ValidatorAddress: stranger.Pub().Address()}
	sc.Signatures = append(sc.Signatures, CommitSig{
		Flag:             BlockIDFlagCommit,
		ValidatorAddress: stranger.Pub().Address(),
		Signature:        stranger.Sign(AppendVoteSignBytes(nil, chainID, vote)),
	})
	if err := vs.VerifyCommit(chainID, blockID, 7, sc); err != ErrInsufficientPower {
		t.Fatalf("stranger signature counted: %v", err)
	}
}

// TestVerifyCommitRejectsTamperedSignature: a commit signature with a
// flipped bit fails, and a verdict on a commit leaves nothing behind that
// vouches for a tampered copy of it.
func TestVerifyCommitRejectsTamperedSignature(t *testing.T) {
	const chainID = "chain-a"
	vs, keys := makeValSet(chainID, 5)
	blockID := BlockID{Hash: sha256.Sum256([]byte("block"))}

	bad := signCommit(chainID, vs, keys, blockID, 7, 4)
	bad.Signatures[0].Signature[0] ^= 1
	if err := vs.VerifyCommit(chainID, blockID, 7, bad); err == nil {
		t.Fatal("tampered signature accepted")
	}
	good := signCommit(chainID, vs, keys, blockID, 7, 4)
	if err := vs.VerifyCommit(chainID, blockID, 7, good); err != nil {
		t.Fatalf("good commit rejected: %v", err)
	}
	good.Signatures[1].Signature[0] ^= 0xff
	if err := vs.VerifyCommit(chainID, blockID, 7, good); err == nil {
		t.Fatal("tampered copy of a verified signature accepted")
	}
	// A failed verification does not spoil the untampered commit.
	good.Signatures[1].Signature[0] ^= 0xff
	if err := vs.VerifyCommit(chainID, blockID, 7, good); err != nil {
		t.Fatalf("good commit rejected after a tampered copy: %v", err)
	}
}

// TestVerifyCommitRejectsForgedSignature: an entry that claims a set
// member's address but is signed by a key outside the set fails.
func TestVerifyCommitRejectsForgedSignature(t *testing.T) {
	const chainID = "chain-a"
	vs, keys := makeValSet(chainID, 5)
	blockID := BlockID{Hash: sha256.Sum256([]byte("block"))}

	forged := signCommit(chainID, vs, keys, blockID, 7, 4)
	vote := &Vote{Type: PrecommitType, Height: 7, BlockID: blockID}
	forged.Signatures[0].Signature = valkey.Derive("attacker", 0).Sign(AppendVoteSignBytes(nil, chainID, vote))
	if err := vs.VerifyCommit(chainID, blockID, 7, forged); err == nil {
		t.Fatal("forged signature accepted")
	}
}

// TestVerifyCommitAllocsFlatInSignatures: the allocations of one
// VerifyCommit call do not grow with the signatures the commit holds.
func TestVerifyCommitAllocsFlatInSignatures(t *testing.T) {
	const chainID = "chain-a"
	blockID := BlockID{Hash: sha256.Sum256([]byte("block"))}
	allocs := map[int]float64{}
	for _, n := range []int{5, 13} {
		vs, keys := makeValSet(chainID, n)
		c := signCommit(chainID, vs, keys, blockID, 7, n)
		allocs[n] = testing.AllocsPerRun(100, func() {
			if err := vs.VerifyCommit(chainID, blockID, 7, c); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[5] != allocs[13] {
		t.Fatalf("VerifyCommit allocates %v at 5 signatures and %v at 13", allocs[5], allocs[13])
	}
	t.Logf("%v allocations per call", allocs[5])
}

func TestValidatorSetHashChangesWithMembership(t *testing.T) {
	a, _ := makeValSet("c", 4)
	b, _ := makeValSet("c", 5)
	if a.Hash() == b.Hash() {
		t.Fatal("validator set hash insensitive to membership")
	}
}

func TestCommitHash(t *testing.T) {
	var nilCommit *Commit
	if nilCommit.Hash() != (Hash{}) {
		t.Fatal("nil commit hash not zero")
	}
	c1 := &Commit{Height: 1, Signatures: []CommitSig{{Flag: BlockIDFlagCommit}}}
	c2 := &Commit{Height: 1, Signatures: []CommitSig{{Flag: BlockIDFlagNil}}}
	if c1.Hash() == c2.Hash() {
		t.Fatal("commit hash insensitive to flags")
	}
}

// TestCommitHashGolden pins Commit.Hash of a fixed commit holding each
// flag, a signature of the usual length, an empty one and a long one, to
// the bytes the block headers of every recorded run were built with.
func TestCommitHashGolden(t *testing.T) {
	sig := func(n int, b byte) []byte {
		s := make([]byte, n)
		for i := range s {
			s[i] = b + byte(i)
		}
		return s
	}
	c := &Commit{Height: 7, Signatures: []CommitSig{
		{Flag: BlockIDFlagCommit, ValidatorAddress: valkey.Address{1, 2, 3}, Timestamp: 5 * time.Second, Signature: sig(64, 0x10)},
		{Flag: BlockIDFlagNil, ValidatorAddress: valkey.Address{4}, Timestamp: 5*time.Second + 7, Signature: sig(64, 0x80)},
		{Flag: BlockIDFlagAbsent, ValidatorAddress: valkey.Address{5, 6}},
		{Flag: BlockIDFlagCommit, ValidatorAddress: valkey.Address{19: 9}, Timestamp: -1, Signature: sig(300, 0x33)},
	}}
	const want = "9cd1edbafb49dd7129a7c11bb39a6b7b5edf1848f6d47695013fedb59bde9b0c"
	h := c.Hash()
	if got := hex.EncodeToString(h[:]); got != want {
		t.Fatalf("Commit.Hash = %s, want %s", got, want)
	}
}

func TestBlockTotalSize(t *testing.T) {
	b := &Block{Data: []Tx{testTx{id: "abc"}, testTx{id: "de"}}}
	if b.TotalSize() != 5 {
		t.Fatalf("total size = %d", b.TotalSize())
	}
}

func TestBlockIDIsZero(t *testing.T) {
	var z BlockID
	if !z.IsZero() {
		t.Fatal("zero BlockID not zero")
	}
	if (BlockID{Hash: sha256.Sum256([]byte("x"))}).IsZero() {
		t.Fatal("nonzero BlockID reported zero")
	}
}

func TestProposerEmptySet(t *testing.T) {
	vs := NewValidatorSet(nil)
	if vs.Proposer(1, 0) != nil {
		t.Fatal("empty set returned a proposer")
	}
	if vs.TotalPower() != 0 || len(vs.Validators) != 0 {
		t.Fatal("empty set has power or size")
	}
}

func TestByAddress(t *testing.T) {
	vs, _ := makeValSet("c", 3)
	for i, v := range vs.Validators {
		got := vs.ByAddress(v.Address)
		if got != v {
			t.Fatalf("ByAddress(%d) mismatch", i)
		}
	}
	var missing valkey.Address
	if vs.ByAddress(missing) != nil {
		t.Fatal("found missing address")
	}
}

func TestVoteSignBytesDistinct(t *testing.T) {
	mk := func(tp SignedMsgType, h int64, r int32, id string, chain string) string {
		v := &Vote{Type: tp, Height: h, Round: r, BlockID: BlockID{Hash: sha256.Sum256([]byte(id))}}
		return string(AppendVoteSignBytes(nil, chain, v))
	}
	seen := map[string]string{}
	cases := map[string]string{
		"base":   mk(PrevoteType, 1, 0, "a", "c"),
		"type":   mk(PrecommitType, 1, 0, "a", "c"),
		"height": mk(PrevoteType, 2, 0, "a", "c"),
		"round":  mk(PrevoteType, 1, 1, "a", "c"),
		"block":  mk(PrevoteType, 1, 0, "b", "c"),
		"chain":  mk(PrevoteType, 1, 0, "a", "d"),
	}
	for name, sb := range cases {
		if prev, dup := seen[sb]; dup {
			t.Fatalf("sign bytes collide: %s vs %s", name, prev)
		}
		seen[sb] = name
	}
}
