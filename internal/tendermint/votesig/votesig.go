// Package votesig is the per-chain shared vote-verification engine.
//
// In the gossip protocol every validator re-verified every vote it
// received, making block production O(V^2) in ed25519 signature checks
// (each of the ~2V votes per round is delivered to all V nodes). The
// votes themselves are chain-global facts: a vote's sign bytes depend
// only on (chainID, type, height, round, blockID) and its signature on
// the validator's key. Every validator of a simulated chain lives in
// this process, so the signer admits: SignVote records the vote's
// (validator, height, round, type, blockID) tuple together with the key
// that vouches for it, and leaves the vote without signature bytes. The
// only bytes anything reads are the precommits commit assembly copies
// into a block's commit; Signature makes them, once per tuple, when it is
// asked. Prevotes, the precommits a commit does not carry and those of
// rounds that never commit are never signed. ed25519 signing is
// deterministic, so a late signature is byte-identical to an early one.
// Full ed25519 checks are for signatures this process did not make.
//
// Safety: a hit never consults the public key it is handed. A vote with
// no signature bytes hits only a tuple SignVote admitted; a vote that
// carries bytes hits only when they equal the admitted tuple's stored
// signature. What admission vouches for is either "verified under the
// valset key for that address" (a full check passed) or "signed on
// demand by the private key whose public half hashes to that address"
// (SignVote refuses any other address), and an ed25519 signature made
// with a private key verifies under its public half by construction.
// Everything else gets the full check: a tampered or forged signature
// over an admitted tuple falls through to it, fails, and leaves the
// admitted entry alone; foreign-chain, stranger and pruned signatures, and
// unsigned votes whose tuple SignVote did not admit, get it too, and
// signatures that pass it are admitted. Callers must resolve the public
// key from the claimed validator address in the chain's canonical
// validator set, otherwise an admitted tuple could vouch for a key it was
// never made with or checked against.
//
// The same engine backs the batched VerifyCommit fast path: a block's
// commit signatures are byte-for-byte the bytes Signature returned for
// the precommits SignVote admitted, so light-client header verification
// skips them too (types.ValidatorSet.VerifyCommitCached). The cross-chain
// ReadOnly view never hits a vote without bytes.
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

// entry is one admitted tuple. signer is set when SignVote admitted it;
// sig is the stored signature: the verified bytes of a tuple a full check
// admitted, or the bytes Signature made with signer (nil until asked).
type entry struct {
	signer *valkey.PrivKey
	sig    []byte
}

// vouches applies the hit rule: a vote without bytes needs a tuple
// SignVote admitted, a vote with bytes needs them equal to the stored ones.
func (e entry) vouches(sig []byte) bool {
	if len(sig) == 0 {
		return e.signer != nil
	}
	return bytes.Equal(e.sig, sig)
}

// Stats reports the cache's verification counters.
type Stats struct {
	// Verifications counts full ed25519 checks performed: votes the hit
	// rule does not vouch for (foreign, forged, tampered, pruned, unsigned
	// but never admitted). An honest run performs none.
	Verifications uint64
	// Hits counts verifications skipped because the identical vote was
	// already admitted.
	Hits uint64
	// Rejected counts signatures that failed the full check.
	Rejected uint64
	// Signed counts ed25519 signatures made: one per admitted tuple whose
	// bytes Signature was asked for.
	Signed uint64
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
	admitted map[key]entry
	buf      []byte // pooled sign-bytes buffer (AppendVoteSignBytes)
	stats    Stats
}

// New creates the cache for one chain.
func New(chainID string) *Cache {
	return &Cache{chainID: chainID, admitted: make(map[key]entry)}
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

// SignVote admits v's tuple on behalf of key without signing it: v keeps
// no signature bytes, every delivery of it hits the cache, and Signature
// makes the bytes with key if something asks for them. The vote must
// claim key's own address: admission vouches for the address's key, so
// admitting under any other address is a programming error and panics.
func (c *Cache) SignVote(key *valkey.PrivKey, v *types.Vote) {
	if v.ValidatorAddress != key.Pub().Address() {
		panic("votesig: SignVote for a validator address that is not the signing key's")
	}
	c.mu.Lock()
	c.admitted[keyOf(v)] = entry{signer: key}
	c.mu.Unlock()
}

// Signature returns v's signature bytes: its own when it carries them,
// otherwise the signature of the tuple SignVote admitted, made with the
// admitting key the first time it is asked for and the same slice on
// every later call (fresh per tuple, never mutated, so commits may retain
// it). It panics for a vote without bytes whose tuple SignVote did not
// admit, or was pruned: a commit must never hash an empty signature.
func (c *Cache) Signature(v *types.Vote) []byte {
	if len(v.Signature) > 0 {
		return v.Signature
	}
	k := keyOf(v)
	c.mu.RLock()
	e := c.admitted[k]
	c.mu.RUnlock()
	if e.signer == nil {
		panic("votesig: Signature of an unsigned vote whose tuple SignVote did not admit")
	}
	if e.sig == nil {
		c.buf = types.AppendVoteSignBytes(c.buf[:0], c.chainID, v)
		e.sig = e.signer.Sign(c.buf)
		c.stats.Signed++
		c.mu.Lock()
		c.admitted[k] = e
		c.mu.Unlock()
	}
	return e.sig
}

// VerifyVote implements types.VoteVerifier: it reports whether the vote's
// signature is valid under pub, skipping the ed25519 check for a vote
// the hit rule vouches for and performing it at most once chain-wide for
// any other distinct vote. Votes for a foreign chain ID never touch the
// cache (they are verified directly) — a cache is bound to the chain
// whose sign-bytes domain it admitted signatures under.
func (c *Cache) VerifyVote(chainID string, v *types.Vote, pub valkey.PubKey) bool {
	if chainID != c.chainID {
		return c.fullVerify(chainID, v, pub)
	}
	k := keyOf(v)
	c.mu.RLock()
	e, ok := c.admitted[k]
	c.mu.RUnlock()
	if ok && e.vouches(v.Signature) {
		c.stats.Hits++
		return true
	}
	if !c.fullVerify(chainID, v, pub) {
		return false
	}
	e.sig = append([]byte(nil), v.Signature...)
	c.mu.Lock()
	c.admitted[k] = e
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
// that run on another chain's partition: a hit requires signature bytes
// equal to an admitted tuple's stored ones (lock-guarded read), so a vote
// without bytes never hits; a miss falls back to a full ed25519 check
// against a private sign-bytes buffer. It never admits tuples, never
// signs and never touches the owner's counters, so the owning engine's
// verification stats stay single-writer.
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
	if chainID == r.c.chainID && len(v.Signature) > 0 {
		k := keyOf(v)
		r.c.mu.RLock()
		e, ok := r.c.admitted[k]
		hit := ok && e.vouches(v.Signature)
		r.c.mu.RUnlock()
		if hit {
			return true
		}
	}
	r.buf = types.AppendVoteSignBytes(r.buf[:0], chainID, v)
	return pub.Verify(r.buf, v.Signature)
}
