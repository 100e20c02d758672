package votesig_test

import (
	"testing"
	"time"

	"ibcbench/internal/tendermint/types"
	"ibcbench/internal/tendermint/votesig"
	"ibcbench/internal/valkey"
)

const chainID = "cache-chain"

// unsignedVote builds a vote claiming key's own address.
func unsignedVote(key *valkey.PrivKey, vt types.SignedMsgType, h int64, r int32, id types.BlockID) *types.Vote {
	return &types.Vote{
		Type:             vt,
		Height:           h,
		Round:            r,
		BlockID:          id,
		Timestamp:        3 * time.Second,
		ValidatorAddress: key.Pub().Address(),
	}
}

// mkVote signs a vote outside the cache: a signature the cache did not
// make, which it must verify before admitting.
func mkVote(key *valkey.PrivKey, vt types.SignedMsgType, h int64, r int32, id types.BlockID) *types.Vote {
	v := unsignedVote(key, vt, h, r, id)
	v.Signature = key.Sign(types.VoteSignBytes(chainID, v))
	return v
}

func TestVerifyOnceThenHit(t *testing.T) {
	c := votesig.New(chainID)
	key := valkey.Derive(chainID, 0)
	v := mkVote(key, types.PrevoteType, 5, 0, types.BlockID{Hash: types.Hash{1}})
	for i := 0; i < 4; i++ {
		if !c.VerifyVote(chainID, v, key.Pub()) {
			t.Fatalf("valid vote rejected on delivery %d", i)
		}
	}
	st := c.Stats()
	if st.Verifications != 1 {
		t.Fatalf("4 deliveries performed %d full verifications, want 1", st.Verifications)
	}
	if st.Hits != 3 {
		t.Fatalf("hits = %d, want 3", st.Hits)
	}
	if st.Size != 1 {
		t.Fatalf("cache size = %d, want 1", st.Size)
	}
}

func TestTamperedSignatureNeverHits(t *testing.T) {
	c := votesig.New(chainID)
	key := valkey.Derive(chainID, 0)
	v := mkVote(key, types.PrevoteType, 5, 0, types.BlockID{Hash: types.Hash{1}})
	if !c.VerifyVote(chainID, v, key.Pub()) {
		t.Fatal("valid vote rejected")
	}
	// Same tuple, flipped signature bit: the cached tuple must not vouch
	// for it — it falls through to a full check and fails.
	bad := *v
	bad.Signature = append([]byte(nil), v.Signature...)
	bad.Signature[0] ^= 0xff
	if c.VerifyVote(chainID, &bad, key.Pub()) {
		t.Fatal("tampered signature accepted via cached tuple")
	}
	st := c.Stats()
	if st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
	// The failed check must not evict or overwrite the admitted entry.
	if !c.VerifyVote(chainID, v, key.Pub()) {
		t.Fatal("original vote rejected after tamper attempt")
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("original vote did not hit after tamper attempt (hits=%d)", st.Hits)
	}
}

func TestForgedVoteRejected(t *testing.T) {
	c := votesig.New(chainID)
	victim := valkey.Derive(chainID, 0)
	attacker := valkey.Derive(chainID, 9)
	// A vote claiming the victim's address but signed by the attacker.
	forged := &types.Vote{
		Type:             types.PrecommitType,
		Height:           2,
		Round:            0,
		BlockID:          types.BlockID{Hash: types.Hash{2}},
		ValidatorAddress: victim.Pub().Address(),
	}
	forged.Signature = attacker.Sign(types.VoteSignBytes(chainID, forged))
	// The caller resolves the pubkey by the claimed address (the
	// victim's), so the forgery fails and is never admitted.
	if c.VerifyVote(chainID, forged, victim.Pub()) {
		t.Fatal("forged vote accepted")
	}
	if st := c.Stats(); st.Size != 0 {
		t.Fatalf("forged vote cached (size=%d)", st.Size)
	}
}

func TestVoteTimestampExcludedFromIdentity(t *testing.T) {
	// A commit signature is the live precommit minus the timestamp (sign
	// bytes never include it), so the commit fast path must hit.
	c := votesig.New(chainID)
	key := valkey.Derive(chainID, 0)
	v := mkVote(key, types.PrecommitType, 7, 1, types.BlockID{Hash: types.Hash{7}})
	if !c.VerifyVote(chainID, v, key.Pub()) {
		t.Fatal("valid vote rejected")
	}
	asCommitSig := *v
	asCommitSig.Timestamp = 0
	if !c.VerifyVote(chainID, &asCommitSig, key.Pub()) {
		t.Fatal("commit-shaped vote rejected")
	}
	if st := c.Stats(); st.Verifications != 1 || st.Hits != 1 {
		t.Fatalf("commit-shaped vote re-verified (verifications=%d hits=%d)", st.Verifications, st.Hits)
	}
}

func TestForeignChainBypassesCache(t *testing.T) {
	c := votesig.New(chainID)
	key := valkey.Derive("other-chain", 0)
	v := &types.Vote{
		Type: types.PrevoteType, Height: 1, Round: 0,
		ValidatorAddress: key.Pub().Address(),
	}
	v.Signature = key.Sign(types.VoteSignBytes("other-chain", v))
	for i := 0; i < 2; i++ {
		if !c.VerifyVote("other-chain", v, key.Pub()) {
			t.Fatal("foreign-chain vote rejected")
		}
	}
	st := c.Stats()
	if st.Verifications != 2 || st.Hits != 0 || st.Size != 0 {
		t.Fatalf("foreign-chain votes touched the cache: %+v", st)
	}
}

func TestPruneBelow(t *testing.T) {
	c := votesig.New(chainID)
	key := valkey.Derive(chainID, 0)
	for h := int64(1); h <= 10; h++ {
		v := mkVote(key, types.PrevoteType, h, 0, types.BlockID{Hash: types.Hash{byte(h)}})
		if !c.VerifyVote(chainID, v, key.Pub()) {
			t.Fatalf("vote at height %d rejected", h)
		}
	}
	c.PruneBelow(8)
	if st := c.Stats(); st.Size != 3 {
		t.Fatalf("size after pruning below 8 = %d, want 3 (heights 8..10)", st.Size)
	}
	// A pruned vote merely falls back to a full verification.
	v := mkVote(key, types.PrevoteType, 2, 0, types.BlockID{Hash: types.Hash{2}})
	if !c.VerifyVote(chainID, v, key.Pub()) {
		t.Fatal("re-delivered pruned vote rejected")
	}
}

// --- admission at signing -----------------------------------------------------

// signVote admits an unsigned vote through the cache, the way
// consensus.castVote does.
func signVote(c *votesig.Cache, key *valkey.PrivKey, vt types.SignedMsgType, h int64, r int32, id types.BlockID) *types.Vote {
	v := unsignedVote(key, vt, h, r, id)
	c.SignVote(key, v)
	return v
}

func TestSignedVoteHitsWithoutVerification(t *testing.T) {
	c := votesig.New(chainID)
	key := valkey.Derive(chainID, 0)
	v := signVote(c, key, types.PrevoteType, 5, 0, types.BlockID{Hash: types.Hash{1}})
	if !c.VerifyVote(chainID, v, key.Pub()) {
		t.Fatal("signed vote rejected")
	}
	if st := c.Stats(); st.Verifications != 0 || st.Hits != 1 || st.Size != 1 {
		t.Fatalf("first delivery of a signed vote: %+v, want 0 verifications, 1 hit, size 1", st)
	}
}

func TestSignedTupleSurvivesBadSignatures(t *testing.T) {
	c := votesig.New(chainID)
	key := valkey.Derive(chainID, 0)
	v := signVote(c, key, types.PrecommitType, 5, 0, types.BlockID{Hash: types.Hash{1}})

	tampered := *v
	tampered.Signature = append([]byte(nil), c.Signature(v)...)
	tampered.Signature[0] ^= 0x01
	if c.VerifyVote(chainID, &tampered, key.Pub()) {
		t.Fatal("bit-flipped signature accepted over a signed tuple")
	}
	// An attacker's signature over the same tuple, claiming the signer's
	// address; the caller resolves the pubkey by that address.
	forged := *v
	forged.Signature = valkey.Derive(chainID, 9).Sign(types.VoteSignBytes(chainID, &forged))
	if c.VerifyVote(chainID, &forged, key.Pub()) {
		t.Fatal("attacker-signed vote accepted over a signed tuple")
	}
	if st := c.Stats(); st.Verifications != 2 || st.Rejected != 2 || st.Size != 1 {
		t.Fatalf("bad signatures did not fall through to failing full checks: %+v", st)
	}
	// Neither failure evicted or overwrote the admitted entry.
	if !c.VerifyVote(chainID, v, key.Pub()) {
		t.Fatal("signed vote rejected after forgery attempts")
	}
	if st := c.Stats(); st.Verifications != 2 || st.Hits != 1 {
		t.Fatalf("signed vote did not hit after forgery attempts: %+v", st)
	}
}

func TestSignVoteRefusesAnotherKeysAddress(t *testing.T) {
	c := votesig.New(chainID)
	v := &types.Vote{
		Type:             types.PrevoteType,
		Height:           1,
		ValidatorAddress: valkey.Derive(chainID, 0).Pub().Address(),
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SignVote signed a vote claiming another key's address")
		}
		if v.Signature != nil || c.Stats().Size != 0 {
			t.Fatal("refused vote was signed or admitted")
		}
	}()
	c.SignVote(valkey.Derive(chainID, 1), v)
}

func TestPrunedSignedTupleFallsBackToFullCheck(t *testing.T) {
	c := votesig.New(chainID)
	key := valkey.Derive(chainID, 0)
	v := signVote(c, key, types.PrecommitType, 2, 0, types.BlockID{Hash: types.Hash{2}})
	// A pruned tuple vouches for nothing: only a vote carrying the bytes a
	// commit holds can still pass, through the full check.
	v.Signature = c.Signature(v)
	c.PruneBelow(3)
	if st := c.Stats(); st.Size != 0 {
		t.Fatalf("size after pruning = %d, want 0", st.Size)
	}
	if !c.VerifyVote(chainID, v, key.Pub()) {
		t.Fatal("pruned signed vote rejected by the full check")
	}
	if st := c.Stats(); st.Verifications != 1 || st.Hits != 0 || st.Rejected != 0 {
		t.Fatalf("pruned signed vote: %+v, want exactly one passing full check", st)
	}
}

func TestReadOnlyHitsSignedCommitShapedVote(t *testing.T) {
	c := votesig.New(chainID)
	key := valkey.Derive(chainID, 0)
	v := signVote(c, key, types.PrecommitType, 7, 1, types.BlockID{Hash: types.Hash{7}})
	asCommitSig := *v
	asCommitSig.Timestamp = 0
	asCommitSig.Signature = c.Signature(v)
	ro := c.ReadOnly()
	// A hit never consults pub, a miss verifies under it: a key that cannot
	// verify the signature tells the two apart.
	wrong := valkey.Derive(chainID, 1).Pub()
	if !ro.VerifyVote(chainID, &asCommitSig, wrong) {
		t.Fatal("read-only view missed a signed precommit presented commit-shaped")
	}
	asCommitSig.Round++
	if ro.VerifyVote(chainID, &asCommitSig, wrong) {
		t.Fatal("read-only view vouched for a tuple that was never signed")
	}
	if st := c.Stats(); st.Verifications != 0 || st.Hits != 0 {
		t.Fatalf("read-only view touched the owner's counters: %+v", st)
	}
}

// TestSignVoteSignaturesVerifyByConstruction checks the claim admission
// at signing rests on with real ed25519: every signature Signature makes
// for a tuple SignVote admitted verifies under the signer's public key
// over the vote's sign bytes.
func TestSignVoteSignaturesVerifyByConstruction(t *testing.T) {
	c := votesig.New(chainID)
	n := 0
	for ki := 0; ki < 4; ki++ {
		key := valkey.Derive(chainID, ki)
		for _, vt := range []types.SignedMsgType{types.PrevoteType, types.PrecommitType} {
			for h := int64(1); h <= 5; h++ {
				for r := int32(0); r < 3; r++ {
					for _, id := range []types.BlockID{{}, {Hash: types.Hash{byte(h), byte(r), 0xa5}}} {
						v := signVote(c, key, vt, h*1000003, r, id)
						if !key.Pub().Verify(types.VoteSignBytes(chainID, v), c.Signature(v)) {
							t.Fatalf("signature for key %d type %d h %d r %d id %x does not verify", ki, vt, v.Height, r, id.Hash[:3])
						}
						n++
					}
				}
			}
		}
	}
	if st := c.Stats(); st.Size != n || st.Verifications != 0 {
		t.Fatalf("after %d signed votes: %+v", n, st)
	}
}

// --- batched VerifyCommit fast path ------------------------------------------

func TestVerifyCommitCachedSkipsAdmittedSignatures(t *testing.T) {
	c := votesig.New(chainID)
	const n = 4
	blockID := types.BlockID{Hash: types.Hash{42}}
	vals := make([]*types.Validator, n)
	commit := &types.Commit{Height: 3, Round: 1, BlockID: blockID}
	for i := 0; i < n; i++ {
		key := valkey.Derive(chainID, i)
		vals[i] = &types.Validator{Address: key.Pub().Address(), PubKey: key.Pub(), VotingPower: 10}
		// The engine admits every precommit it casts, every delivery hits,
		// and commit assembly reads the bytes through Signature.
		v := signVote(c, key, types.PrecommitType, 3, 1, blockID)
		if !c.VerifyVote(chainID, v, key.Pub()) {
			t.Fatalf("live precommit %d rejected", i)
		}
		commit.Signatures = append(commit.Signatures, types.CommitSig{
			Flag:             types.BlockIDFlagCommit,
			ValidatorAddress: v.ValidatorAddress,
			Timestamp:        v.Timestamp,
			Signature:        c.Signature(v),
		})
	}
	vs := types.NewValidatorSet(vals)
	before := c.Stats().Verifications
	if err := vs.VerifyCommitCached(chainID, blockID, 3, commit, c); err != nil {
		t.Fatalf("cached commit verification failed: %v", err)
	}
	if after := c.Stats().Verifications; after != before {
		t.Fatalf("commit fast path performed %d extra full verifications", after-before)
	}

	// A tampered commit signature still fails even with a warm cache.
	bad := &types.Commit{Height: 3, Round: 1, BlockID: blockID}
	bad.Signatures = append([]types.CommitSig(nil), commit.Signatures...)
	bad.Signatures[2].Signature = append([]byte(nil), bad.Signatures[2].Signature...)
	bad.Signatures[2].Signature[5] ^= 0x01
	if err := vs.VerifyCommitCached(chainID, blockID, 3, bad, c); err == nil {
		t.Fatal("tampered commit signature accepted through the fast path")
	}

	// An unregistered verifier (nil) still verifies the commit fully.
	if err := vs.VerifyCommitCached(chainID, blockID, 3, commit, nil); err != nil {
		t.Fatalf("nil-verifier commit verification failed: %v", err)
	}
}

// --- signing on demand --------------------------------------------------------

func TestSignatureSignsOnceOnDemand(t *testing.T) {
	c := votesig.New(chainID)
	key := valkey.Derive(chainID, 0)
	v := signVote(c, key, types.PrecommitType, 4, 0, types.BlockID{Hash: types.Hash{4}})
	if v.Signature != nil {
		t.Fatal("SignVote left signature bytes on the vote")
	}
	for i := 0; i < 3; i++ {
		if !c.VerifyVote(chainID, v, key.Pub()) {
			t.Fatalf("unsigned admitted vote rejected on delivery %d", i)
		}
	}
	if st := c.Stats(); st.Signed != 0 || st.Hits != 3 || st.Verifications != 0 {
		t.Fatalf("deliveries of an admitted vote: %+v, want 0 signed, 3 hits, 0 verifications", st)
	}
	sig := c.Signature(v)
	if want := key.Sign(types.VoteSignBytes(chainID, v)); string(sig) != string(want) {
		t.Fatal("on-demand signature differs from an eager one")
	}
	if again := c.Signature(v); &again[0] != &sig[0] {
		t.Fatal("second Signature call returned a different slice")
	}
	if st := c.Stats(); st.Signed != 1 {
		t.Fatalf("signed = %d after two Signature calls, want 1", st.Signed)
	}
	// A vote that carries bytes is its own signature; nothing is signed.
	own := mkVote(key, types.PrevoteType, 4, 0, types.BlockID{})
	if got := c.Signature(own); &got[0] != &own.Signature[0] {
		t.Fatal("Signature replaced a vote's own bytes")
	}
	if st := c.Stats(); st.Signed != 1 {
		t.Fatalf("signed = %d, want 1", st.Signed)
	}
}

// TestSignatureRequiresAdmittedTuple pins the guard that keeps commit
// assembly from hashing an empty signature: an unsigned vote whose tuple
// SignVote did not admit — never admitted, pruned, or admitted only by a
// full check of someone else's bytes — has no signature to give.
func TestSignatureRequiresAdmittedTuple(t *testing.T) {
	key := valkey.Derive(chainID, 0)
	id := types.BlockID{Hash: types.Hash{6}}
	cases := map[string]func(c *votesig.Cache) *types.Vote{
		"never admitted": func(c *votesig.Cache) *types.Vote {
			return unsignedVote(key, types.PrecommitType, 6, 0, id)
		},
		"pruned": func(c *votesig.Cache) *types.Vote {
			v := signVote(c, key, types.PrecommitType, 6, 0, id)
			c.PruneBelow(7)
			return v
		},
		"admitted by a full check": func(c *votesig.Cache) *types.Vote {
			if !c.VerifyVote(chainID, mkVote(key, types.PrecommitType, 6, 0, id), key.Pub()) {
				t.Fatal("valid vote rejected")
			}
			return unsignedVote(key, types.PrecommitType, 6, 0, id)
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			c := votesig.New(chainID)
			v := mk(c)
			defer func() {
				if recover() == nil {
					t.Fatal("Signature returned bytes for an unsigned vote with no admitted tuple")
				}
				if st := c.Stats(); st.Signed != 0 {
					t.Fatalf("refused Signature signed anyway: %+v", st)
				}
			}()
			c.Signature(v)
		})
	}
}
