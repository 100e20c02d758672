// Package types defines the Tendermint block structure described in §II-A
// of the paper: Header, Data and LastCommit fields, votes, commits and
// validator sets. No run builds evidence of misbehaviour, so a block
// carries none and its header's EvidenceHash is always zero.
package types

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"ibcbench/internal/merkle"
	"ibcbench/internal/valkey"
)

// Hash is a 32-byte digest.
type Hash = merkle.Hash

// Tx is an opaque transaction from Tendermint's perspective: "Transaction
// data is application-specific and unknown to Tendermint" (§II-A). The
// application layer provides concrete implementations.
type Tx interface {
	// Hash uniquely identifies the transaction.
	Hash() Hash
	// Size is the encoded size in bytes, used for block/mempool limits.
	Size() int
	// GasWanted is the gas limit the submitter attached.
	GasWanted() uint64
}

// BlockID identifies a block by its header hash.
type BlockID struct {
	Hash Hash
}

// IsZero reports whether the BlockID is the nil block (a round that
// failed to decide).
func (b BlockID) IsZero() bool { return b.Hash == Hash{} }

// SignedMsgType distinguishes the two voting stages of a consensus round.
type SignedMsgType byte

// Vote types, per the two-stage voting protocol (§II-A).
const (
	PrevoteType SignedMsgType = iota + 1
	PrecommitType
)

// BlockIDFlag indicates what a validator's commit signature voted for.
type BlockIDFlag byte

// Commit signature flags, mirroring Tendermint's LastCommit encoding
// (Fig. 1 of the paper).
const (
	// BlockIDFlagAbsent marks a validator that did not cast a vote.
	BlockIDFlagAbsent BlockIDFlag = iota + 1
	// BlockIDFlagCommit marks a vote for the block accepted by the majority.
	BlockIDFlagCommit
	// BlockIDFlagNil marks a vote for a different (nil) block.
	BlockIDFlagNil
)

// Header carries block metadata (Fig. 1).
type Header struct {
	Version            uint64
	ChainID            string
	Height             int64
	Time               time.Duration // virtual time of proposal
	LastBlockID        BlockID
	LastCommitHash     Hash
	DataHash           Hash
	ValidatorsHash     Hash
	NextValidatorsHash Hash
	ConsensusHash      Hash
	AppHash            Hash
	LastResultsHash    Hash
	EvidenceHash       Hash
	ProposerAddress    valkey.Address
}

// Hash computes the header digest that serves as the BlockID.
func (h *Header) Hash() Hash {
	hs := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		hs.Write(buf[:])
	}
	put(h.Version)
	hs.Write([]byte(h.ChainID))
	put(uint64(h.Height))
	put(uint64(h.Time))
	hs.Write(h.LastBlockID.Hash[:])
	hs.Write(h.LastCommitHash[:])
	hs.Write(h.DataHash[:])
	hs.Write(h.ValidatorsHash[:])
	hs.Write(h.NextValidatorsHash[:])
	hs.Write(h.ConsensusHash[:])
	hs.Write(h.AppHash[:])
	hs.Write(h.LastResultsHash[:])
	hs.Write(h.EvidenceHash[:])
	hs.Write(h.ProposerAddress[:])
	var out Hash
	copy(out[:], hs.Sum(nil))
	return out
}

// CommitSig is one validator's entry in a block's LastCommit.
type CommitSig struct {
	Flag             BlockIDFlag
	ValidatorAddress valkey.Address
	Timestamp        time.Duration
	Signature        []byte
}

// Commit is the aggregate of precommit votes that finalized a block.
type Commit struct {
	Height     int64
	Round      int32
	BlockID    BlockID
	Signatures []CommitSig
}

// Hash commits to the commit contents for the LastCommitHash header field.
func (c *Commit) Hash() Hash {
	if c == nil {
		return Hash{}
	}
	leaves := make([]merkle.Hash, 0, len(c.Signatures))
	for _, s := range c.Signatures {
		h := sha256.New()
		h.Write([]byte{byte(s.Flag)})
		h.Write(s.ValidatorAddress[:])
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(s.Timestamp))
		h.Write(buf[:])
		h.Write(s.Signature)
		var lh merkle.Hash
		copy(lh[:], h.Sum(nil))
		leaves = append(leaves, lh)
	}
	return merkle.HashLeaves(leaves)
}

// Block is a Tendermint block (Fig. 1) without evidence: Header, Data,
// LastCommit.
type Block struct {
	Header     Header
	Data       []Tx
	LastCommit *Commit
}

// DataHash commits to the ordered transaction list.
func DataHash(txs []Tx) Hash {
	leaves := make([]merkle.Hash, len(txs))
	for i, tx := range txs {
		leaves[i] = tx.Hash()
	}
	return merkle.HashLeaves(leaves)
}

// TotalSize sums the encoded sizes of the block's transactions.
func (b *Block) TotalSize() int {
	n := 0
	for _, tx := range b.Data {
		n += tx.Size()
	}
	return n
}

// Vote is a single consensus vote (prevote or precommit). It carries no
// signature: every validator of a chain lives in this process, so only
// the precommits a commit carries are ever signed (CommitSig.Signature).
type Vote struct {
	Type             SignedMsgType
	Height           int64
	Round            int32
	BlockID          BlockID
	Timestamp        time.Duration
	ValidatorAddress valkey.Address
}

// AppendVoteSignBytes appends the canonical bytes a validator signs for a
// vote to dst and returns the extended slice. The validator and the
// timestamp are not part of them, so every precommit of one commit signs
// the same bytes.
func AppendVoteSignBytes(dst []byte, chainID string, v *Vote) []byte {
	dst = append(dst, byte(v.Type))
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(v.Height))
	dst = append(dst, n[:]...)
	binary.BigEndian.PutUint64(n[:], uint64(v.Round))
	dst = append(dst, n[:]...)
	dst = append(dst, v.BlockID.Hash[:]...)
	dst = append(dst, chainID...)
	return dst
}

// Validator is one member of the validator set.
type Validator struct {
	Address     valkey.Address
	PubKey      valkey.PubKey
	VotingPower int64
}

// ValidatorSet is an ordered set of validators with proposer rotation.
type ValidatorSet struct {
	Validators []*Validator
	totalPower int64
	byAddr     map[valkey.Address]int // into Validators
}

// NewValidatorSet builds a set; order is preserved and determines the
// round-robin proposer schedule.
func NewValidatorSet(vals []*Validator) *ValidatorSet {
	vs := &ValidatorSet{
		Validators: append([]*Validator(nil), vals...),
		byAddr:     make(map[valkey.Address]int, len(vals)),
	}
	for i, v := range vals {
		vs.totalPower += v.VotingPower
		vs.byAddr[v.Address] = i
	}
	return vs
}

// TotalPower reports the sum of voting power.
func (vs *ValidatorSet) TotalPower() int64 { return vs.totalPower }

// Index returns a's position in Validators.
func (vs *ValidatorSet) Index(a valkey.Address) (int, bool) {
	i, ok := vs.byAddr[a]
	return i, ok
}

// Proposer selects the proposer for a height/round by rotation: "In each
// round one participant from the validator set is elected as a proposer"
// (§II-A).
func (vs *ValidatorSet) Proposer(height int64, round int32) *Validator {
	if len(vs.Validators) == 0 {
		return nil
	}
	idx := (uint64(height) + uint64(round)) % uint64(len(vs.Validators))
	return vs.Validators[idx]
}

// Hash commits to the validator set for the header's ValidatorsHash.
func (vs *ValidatorSet) Hash() Hash {
	leaves := make([]merkle.Hash, len(vs.Validators))
	for i, v := range vs.Validators {
		h := sha256.New()
		h.Write(v.Address[:])
		h.Write(v.PubKey.Bytes())
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(v.VotingPower))
		h.Write(buf[:])
		copy(leaves[i][:], h.Sum(nil))
	}
	return merkle.HashLeaves(leaves)
}

// Commit verification errors.
var (
	ErrCommitHeightMismatch = errors.New("types: commit height mismatch")
	ErrCommitWrongBlockID   = errors.New("types: commit is for a different block")
	ErrInsufficientPower    = errors.New("types: less than 2/3+ voting power signed")
)

// VerifyCommit checks that a commit carries valid signatures from more
// than 2/3 of the validator set's voting power for the given block. This
// is the check light clients perform when accepting counterparty headers,
// and the one place a vote signature meets bytes this chain did not make:
// every counted signature gets a full valkey.PubKey.Verify. Signatures
// without the commit flag, from strangers or repeating a counted
// validator add nothing. The precommits for one block all sign the same
// bytes, so they are built once per call, and the allocations of a call
// do not grow with the number of signatures.
func (vs *ValidatorSet) VerifyCommit(chainID string, blockID BlockID, height int64, commit *Commit) error {
	if commit == nil || commit.Height != height {
		return ErrCommitHeightMismatch
	}
	if commit.BlockID != blockID {
		return ErrCommitWrongBlockID
	}
	vote := Vote{Type: PrecommitType, Height: commit.Height, Round: commit.Round, BlockID: commit.BlockID}
	var buf [128]byte
	signBytes := AppendVoteSignBytes(buf[:0], chainID, &vote)
	seen := make([]bool, len(vs.Validators))
	var signed int64
	for _, sig := range commit.Signatures {
		i, ok := vs.byAddr[sig.ValidatorAddress]
		if sig.Flag != BlockIDFlagCommit || !ok || seen[i] {
			continue
		}
		val := vs.Validators[i]
		if !val.PubKey.Verify(signBytes, sig.Signature) {
			return fmt.Errorf("types: invalid signature from %s", sig.ValidatorAddress)
		}
		seen[i] = true
		signed += val.VotingPower
	}
	if signed*3 <= vs.totalPower*2 {
		return ErrInsufficientPower
	}
	return nil
}
