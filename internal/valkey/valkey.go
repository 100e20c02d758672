// Package valkey manages validator signing keys.
//
// Tendermint validators sign consensus votes; light clients
// authenticate counterparty headers by verifying those signatures
// against a known validator set. A run's costs are virtual (simconf
// gas and service times), so the scheme is chosen to be cheap on the
// host rather than hard to forge outside the process: a signature is a
// keyed hash, SHA-512(seed ‖ msg), and a public key is a
// domain-separated SHA-256 of the seed. Keys are derived
// deterministically so simulation runs are reproducible.
//
// Verify recomputes the hash from the seed Derive recorded for the
// public key, so it still refuses a signature of another message, a
// signature made by another key, a tampered signature and any key
// Derive never produced. That rests on the premise votesig already
// rests on: every validator lives in this process.
package valkey

import (
	"bytes"
	"crypto/sha256"
	"crypto/sha512"
	"encoding/hex"
	"fmt"
	"sync"
)

const (
	pubKeySize = sha256.Size
	sigSize    = sha512.Size
)

// pubDomain separates a public key's hash from every other hash of a seed.
const pubDomain = "ibcbench/valkey/pub/"

// seeds maps every public key Derive produced to its seed. Deployments
// derive keys on many goroutines at once (scenario.ParallelMap), so the
// table is guarded by a read/write lock.
var seeds = struct {
	sync.RWMutex
	byPub map[[pubKeySize]byte][sha256.Size]byte
}{byPub: map[[pubKeySize]byte][sha256.Size]byte{}}

// Address identifies a validator (first 20 bytes of the pubkey hash,
// like Tendermint's address derivation).
type Address [20]byte

// String renders the address as hex.
func (a Address) String() string { return hex.EncodeToString(a[:]) }

// PrivKey is a validator signing key.
type PrivKey struct {
	seed [sha256.Size]byte
	pub  PubKey
}

// PubKey is a validator verification key.
type PubKey struct {
	key [pubKeySize]byte
}

// Derive deterministically creates a key pair from a chain ID and index
// and records it, so Verify can check the key's signatures. Deterministic
// derivation keeps experiment runs reproducible without seeding
// crypto/rand.
func Derive(chainID string, index int) *PrivKey {
	seed := sha256.Sum256([]byte(fmt.Sprintf("ibcbench/valkey/%s/%d", chainID, index)))
	var b [len(pubDomain) + sha256.Size]byte
	copy(b[:], pubDomain)
	copy(b[len(pubDomain):], seed[:])
	p := &PrivKey{seed: seed, pub: PubKey{key: sha256.Sum256(b[:])}}
	seeds.Lock()
	seeds.byPub[p.pub.key] = seed
	seeds.Unlock()
	return p
}

// Pub returns the verification key.
func (p *PrivKey) Pub() PubKey { return p.pub }

// Sign signs msg.
func (p *PrivKey) Sign(msg []byte) []byte {
	sig := keyedHash(&p.seed, msg)
	return sig[:]
}

// keyedHash is SHA-512(seed ‖ msg).
func keyedHash(seed *[sha256.Size]byte, msg []byte) [sigSize]byte {
	h := sha512.New()
	h.Write(seed[:])
	h.Write(msg)
	var sum [sigSize]byte
	h.Sum(sum[:0])
	return sum
}

// Address derives the validator address from the public key.
func (k PubKey) Address() Address {
	h := sha256.Sum256(k.key[:])
	var a Address
	copy(a[:], h[:20])
	return a
}

// Verify reports whether sig is a valid signature of msg under the key.
// A key Derive never produced verifies nothing.
func (k PubKey) Verify(msg, sig []byte) bool {
	seeds.RLock()
	seed, ok := seeds.byPub[k.key]
	seeds.RUnlock()
	if !ok || len(sig) != sigSize {
		return false
	}
	want := keyedHash(&seed, msg)
	return bytes.Equal(want[:], sig)
}

// Bytes exposes the raw public key material (for header serialization).
func (k PubKey) Bytes() []byte { return append([]byte(nil), k.key[:]...) }

// PubKeyFromBytes reconstructs a verification key.
func PubKeyFromBytes(b []byte) (PubKey, error) {
	if len(b) != pubKeySize {
		return PubKey{}, fmt.Errorf("valkey: bad public key length %d", len(b))
	}
	return PubKey{key: [pubKeySize]byte(b)}, nil
}
