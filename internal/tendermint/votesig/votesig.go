// Package votesig is the per-chain shared vote-verification engine.
//
// In the gossip protocol every validator re-verified every vote it
// received, making block production O(V^2) in ed25519 signature checks
// (each of the ~2V votes per round is delivered to all V nodes). The
// votes themselves are chain-global facts: a vote's sign bytes depend
// only on (chainID, type, height, round, blockID) and its signature on
// the validator's key. Every validator of a simulated chain lives in
// this process, so the signer admits: SignVote signs the vote and
// records its (validator, height, round, type, blockID) tuple together
// with the exact signature bytes it produced. Every delivery of that
// vote, and every light-client check of the commit signature it becomes,
// hits the cache and skips the curve operation. Full ed25519 checks are
// for signatures this process did not make.
//
// Safety: a hit has always ignored the public key it was handed and
// trusted the admitted bytes — it only requires the candidate signature
// to be byte-identical to the admitted one. What admission vouches for
// used to be "verified under the valset key for that address"; admission
// at signing replaces it by "produced by the private key whose public
// half hashes to that address" (SignVote refuses any other address), and
// an ed25519 signature made with a private key verifies under its public
// half by construction. A tampered or forged signature over an admitted
// tuple never short-circuits: it falls through to a full verification,
// fails, and leaves the admitted entry alone. Foreign-chain, stranger and
// pruned signatures get the full check too, and those that pass it are
// admitted as before. Callers must resolve the public key from the
// claimed validator address in the chain's canonical validator set,
// otherwise an admitted tuple could vouch for a key it was never made
// with or checked against.
//
// The same engine backs the batched VerifyCommit fast path: a block's
// commit signatures are byte-for-byte the precommit votes SignVote
// admitted, so light-client header verification skips them too
// (types.ValidatorSet.VerifyCommitCached).
package votesig

import (
	"bytes"
	"sync"

	"ibcbench/internal/tendermint/types"
	"ibcbench/internal/valkey"
)

// key identifies one vote as a chain-global fact. Two honest votes never
// share a key; a conflicting (equivocating) vote differs in BlockID and
// therefore verifies — and caches — separately.
type key struct {
	Validator valkey.Address
	Height    int64
	Round     int32
	Type      types.SignedMsgType
	BlockID   types.Hash
}

// Stats reports the cache's verification counters.
type Stats struct {
	// Verifications counts full ed25519 checks performed: signatures
	// SignVote did not make (foreign, forged, tampered, pruned). An honest
	// run performs none.
	Verifications uint64
	// Hits counts verifications skipped because the identical vote was
	// already admitted.
	Hits uint64
	// Rejected counts signatures that failed the full check.
	Rejected uint64
	// Size is the number of admitted tuples currently retained.
	Size int
}

// Cache is one chain's shared vote-verification engine. The consensus
// engine that owns it mutates it on the chain's scheduler; under
// parallel runs other chains' light-client paths consult it through
// read-only verifiers (ReadOnly), so the admitted map is guarded by a
// read/write lock.
type Cache struct {
	mu       sync.RWMutex
	chainID  string
	admitted map[key][]byte // signed or verified tuple -> admitted signature bytes
	buf      []byte         // pooled sign-bytes buffer (AppendVoteSignBytes)
	stats    Stats
}

// New creates the cache for one chain.
func New(chainID string) *Cache {
	return &Cache{chainID: chainID, admitted: make(map[key][]byte)}
}

func keyOf(v *types.Vote) key {
	return key{
		Validator: v.ValidatorAddress,
		Height:    v.Height,
		Round:     v.Round,
		Type:      v.Type,
		BlockID:   v.BlockID.Hash,
	}
}

// SignVote signs v with key, stores the signature on the vote and admits
// the vote's tuple with exactly those bytes, so no delivery of it is ever
// verified. The signature slice is retained as returned by Sign (fresh
// per call, never mutated). The vote must claim key's own address:
// admission vouches for the address's key, so signing under any other
// address is a programming error and panics.
func (c *Cache) SignVote(key *valkey.PrivKey, v *types.Vote) {
	if v.ValidatorAddress != key.Pub().Address() {
		panic("votesig: SignVote for a validator address that is not the signing key's")
	}
	c.buf = types.AppendVoteSignBytes(c.buf[:0], c.chainID, v)
	v.Signature = key.Sign(c.buf)
	c.mu.Lock()
	c.admitted[keyOf(v)] = v.Signature
	c.mu.Unlock()
}

// VerifyVote implements types.VoteVerifier: it reports whether the vote's
// signature is valid under pub, skipping the ed25519 check for a vote
// SignVote produced and performing it at most once chain-wide for any
// other distinct vote. Votes for a foreign chain ID never touch
// the cache (they are verified directly) — a cache is bound to the chain
// whose sign-bytes domain it admitted signatures under.
func (c *Cache) VerifyVote(chainID string, v *types.Vote, pub valkey.PubKey) bool {
	if chainID != c.chainID {
		return c.fullVerify(chainID, v, pub)
	}
	k := keyOf(v)
	c.mu.RLock()
	sig, ok := c.admitted[k]
	c.mu.RUnlock()
	if ok && bytes.Equal(sig, v.Signature) {
		c.stats.Hits++
		return true
	}
	if !c.fullVerify(chainID, v, pub) {
		return false
	}
	c.mu.Lock()
	c.admitted[k] = append([]byte(nil), v.Signature...)
	c.mu.Unlock()
	return true
}

func (c *Cache) fullVerify(chainID string, v *types.Vote, pub valkey.PubKey) bool {
	c.buf = types.AppendVoteSignBytes(c.buf[:0], chainID, v)
	c.stats.Verifications++
	if !pub.Verify(c.buf, v.Signature) {
		c.stats.Rejected++
		return false
	}
	return true
}

// PruneBelow drops admitted tuples for heights below h. The engine prunes
// a trailing window behind the committed height: live votes for old
// heights no longer arrive, and a pruned commit signature merely falls
// back to a full verification in the light-client path.
func (c *Cache) PruneBelow(h int64) {
	c.mu.Lock()
	for k := range c.admitted {
		if k.Height < h {
			delete(c.admitted, k)
		}
	}
	c.mu.Unlock()
}

// Stats snapshots the verification counters.
func (c *Cache) Stats() Stats {
	s := c.stats
	c.mu.RLock()
	s.Size = len(c.admitted)
	c.mu.RUnlock()
	return s
}

// ReadOnly is a cross-chain view of the cache for light-client paths
// that run on another chain's partition: a hit requires an admitted
// byte-identical signature (lock-guarded read), a miss falls back to a
// full ed25519 check against a private sign-bytes buffer. It never
// admits tuples and never touches the owner's counters, so the owning
// engine's verification stats stay single-writer.
type ReadOnly struct {
	c   *Cache
	buf []byte
}

// ReadOnly derives a read-only verifier. Each consumer (one keeper's
// counterparty registration) must hold its own instance: the verifier
// itself is single-threaded, only its view of the cache is shared.
func (c *Cache) ReadOnly() *ReadOnly { return &ReadOnly{c: c} }

// VerifyVote implements types.VoteVerifier without mutating the cache.
func (r *ReadOnly) VerifyVote(chainID string, v *types.Vote, pub valkey.PubKey) bool {
	if chainID == r.c.chainID {
		k := keyOf(v)
		r.c.mu.RLock()
		sig, ok := r.c.admitted[k]
		hit := ok && bytes.Equal(sig, v.Signature)
		r.c.mu.RUnlock()
		if hit {
			return true
		}
	}
	r.buf = types.AppendVoteSignBytes(r.buf[:0], chainID, v)
	return pub.Verify(r.buf, v.Signature)
}
