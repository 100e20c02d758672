package types

import (
	"crypto/sha256"
	"testing"

	"ibcbench/internal/valkey"
)

// naiveVerifyCommit is VerifyCommit's model: it looks each signer up by a
// walk of the set, builds fresh sign bytes for every signature, checks
// each with PubKey.Verify and counts a validator's power once, against a
// total summed afresh.
func naiveVerifyCommit(vs *ValidatorSet, chainID string, blockID BlockID, height int64, c *Commit) bool {
	if c.Height != height || c.BlockID != blockID {
		return false
	}
	var total, power int64
	for _, v := range vs.Validators {
		total += v.VotingPower
	}
	counted := map[valkey.Address]bool{}
	for _, s := range c.Signatures {
		if s.Flag != BlockIDFlagCommit || counted[s.ValidatorAddress] {
			continue
		}
		var val *Validator
		for _, v := range vs.Validators {
			if v.Address == s.ValidatorAddress {
				val = v
			}
		}
		if val == nil {
			continue
		}
		vote := &Vote{Type: PrecommitType, Height: c.Height, Round: c.Round, BlockID: c.BlockID,
			Timestamp: s.Timestamp, ValidatorAddress: s.ValidatorAddress}
		if !val.PubKey.Verify(AppendVoteSignBytes(nil, chainID, vote), s.Signature) {
			return false
		}
		counted[s.ValidatorAddress] = true
		power += val.VotingPower
	}
	return 3*power > 2*total
}

// FuzzVerifyCommit mutates a real commit and compares VerifyCommit's
// verdict with naiveVerifyCommit's. data[0] picks the validator-set size
// (1–13), data[1] how many of them sign; then each (op, i, arg) triple
// edits entry i (modulo the entries) of the commit:
//
//	0 flips one bit of its signature;
//	1 swaps in a stranger's address, signed by the stranger's key;
//	2 swaps in a duplicate of entry arg, or appends one (arg bit 7);
//	3 sets its flag to absent, commit or nil;
//	4 re-signs it for another chain ID, or (arg bit 0) switches the
//	  chain ID the commit is verified under.
func FuzzVerifyCommit(f *testing.F) {
	f.Add([]byte{5, 4})                                       // a quorum, untouched
	f.Add([]byte{5, 5, 0, 2, 9, 2, 3, 0, 1, 1, 0})            // flipped bit, duplicate of entry 0, stranger
	f.Add([]byte{13, 13, 3, 4, 2, 3, 5, 0, 4, 6, 0, 4, 0, 1}) // nil flag, absent flag, foreign signature, foreign verifier
	f.Add([]byte{4, 3, 2, 0, 0x81, 2, 0, 0x82})               // two appended duplicates

	const chainID, otherChain = "fuzz-a", "fuzz-b"
	var keys [13]*valkey.PrivKey
	for i := range keys {
		keys[i] = valkey.Derive(chainID, i)
	}
	strangers := [2]*valkey.PrivKey{valkey.Derive("stranger", 0), valkey.Derive(chainID, 99)}
	blockID := BlockID{Hash: sha256.Sum256([]byte("fuzz-block"))}
	const height = 7

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		if len(data) > 2+3*64 {
			data = data[:2+3*64]
		}
		n := 1 + int(data[0])%len(keys)
		vals := make([]*Validator, n)
		for i := range vals {
			vals[i] = &Validator{Address: keys[i].Pub().Address(), PubKey: keys[i].Pub(), VotingPower: 10}
		}
		vs := NewValidatorSet(vals)
		c := signCommit(chainID, vs, keys[:n], blockID, height, int(data[1])%(n+1))
		signFor := func(chain string) []byte {
			return AppendVoteSignBytes(nil, chain, &Vote{Type: PrecommitType, Height: height, BlockID: blockID})
		}
		verifyAs := chainID
		for ops := data[2:]; len(ops) >= 3; ops = ops[3:] {
			op, i, arg := ops[0]%5, int(ops[1])%len(c.Signatures), ops[2]
			e := &c.Signatures[i]
			switch op {
			case 0:
				if len(e.Signature) > 0 {
					e.Signature = append([]byte(nil), e.Signature...)
					e.Signature[int(arg)%len(e.Signature)] ^= 1 << (arg % 8)
				}
			case 1:
				s := strangers[arg%2]
				e.ValidatorAddress = s.Pub().Address()
				e.Signature = s.Sign(signFor(chainID))
			case 2:
				d := c.Signatures[int(arg&0x7f)%len(c.Signatures)]
				if arg&0x80 != 0 {
					c.Signatures = append(c.Signatures, d)
				} else {
					*e = d
				}
			case 3:
				e.Flag = BlockIDFlag(1 + arg%3)
			case 4:
				if arg&1 != 0 {
					verifyAs = otherChain
				} else if j, ok := vs.byAddr[e.ValidatorAddress]; ok {
					e.Signature = keys[j].Sign(signFor(otherChain))
				}
			}
		}
		got := vs.VerifyCommit(verifyAs, blockID, height, c)
		if want := naiveVerifyCommit(vs, verifyAs, blockID, height, c); (got == nil) != want {
			t.Fatalf("VerifyCommit = %v, model accepts = %v (%d validators, commit %+v)", got, want, n, c.Signatures)
		}
	})
}
