package votesig_test

import (
	"bytes"
	"testing"

	"ibcbench/internal/tendermint/types"
	"ibcbench/internal/tendermint/votesig"
	"ibcbench/internal/valkey"
)

// eagerKey is a vote's tuple in the model: the chain it was cast on plus
// what votesig keys its admissions by.
type eagerKey struct {
	chain  int
	val    valkey.Address
	height int64
	round  int32
	typ    types.SignedMsgType
	id     types.Hash
}

// eagerCache is the model: the cache as it was when every vote was
// signed when cast. Each admitted tuple holds the eager signature bytes,
// a hit needs byte-identical bytes, and everything else is a full
// signature check, counted like Stats counts it.
type eagerCache struct {
	chainID                       string
	admitted                      map[eagerKey][]byte
	hits, verifications, rejected uint64
}

func (m *eagerCache) verify(chain int, chainID string, v *types.Vote, pub valkey.PubKey) bool {
	k := eagerKeyOf(chain, v)
	if chainID == m.chainID {
		if sig, ok := m.admitted[k]; ok && bytes.Equal(sig, v.Signature) {
			m.hits++
			return true
		}
	}
	m.verifications++
	if !pub.Verify(types.AppendVoteSignBytes(nil, chainID, v), v.Signature) {
		m.rejected++
		return false
	}
	if chainID == m.chainID {
		m.admitted[k] = v.Signature
	}
	return true
}

func eagerKeyOf(chain int, v *types.Vote) eagerKey {
	return eagerKey{chain, v.ValidatorAddress, v.Height, v.Round, v.Type, v.BlockID.Hash}
}

// castVote is one vote SignVote admitted: the unsigned vote the engine
// gossips and the eager signature the model gave it.
type castVote struct {
	chain int
	v     *types.Vote
	eager []byte
	key   *valkey.PrivKey
	live  bool   // not yet retired by a prune: the engine still delivers it
	got   []byte // what Signature returned, once it was asked while live
}

// FuzzVoteCache drives two chains' caches and the eager model with calls
// decoded from (op, arg) byte pairs. arg names a tuple: validator (2
// bits), height 1–4, round 0–2, type and a nil or non-nil block ID; for
// ops on cast votes it picks one of them instead. op's low 3 bits pick the
// call, bit 3 the tuple's chain, bit 4 the cache it is delivered to, bits
// 5–6 a variant:
//
//	0 SignVote of a tuple never cast before (the engine casts each once);
//	1 delivery of a live cast vote, unsigned, to its own chain;
//	2 delivery carrying its Signature bytes, commit-shaped;
//	3 a bit-flipped copy of those bytes;
//	4 a vote over the tuple signed by another validator's key;
//	5 an unsigned vote whose tuple SignVote has not admitted;
//	6 PruneBelow, which retires the chain's cast votes below the height;
//	7 ReadOnly.VerifyVote of a commit-shaped vote: its bytes, flipped
//	  bytes, or none.
//
// Every accept/reject must be valkey's verdict on the eager vote, every
// Signature must equal the eager bytes (the same slice on every call),
// and Verifications, Rejected, Hits and Size must equal the model's;
// Signed must be the number of cast votes whose bytes were asked for.
func FuzzVoteCache(f *testing.F) {
	f.Add([]byte{0x00, 0x45, 0x01, 0x00, 0x02, 0x00, 0x12, 0x00, 0x03, 0x00, 0x07, 0x00, 0x67, 0x00})             // cast, deliver unsigned, commit bytes to both caches, flipped, read-only with and without bytes
	f.Add([]byte{0x00, 0x41, 0x02, 0x00, 0x06, 0x02, 0x02, 0x00, 0x02, 0x00, 0x05, 0x41, 0x01, 0x00, 0x07, 0x00}) // prune a signed tuple: its commit bytes pass one full check then hit, its unsigned vote is refused
	f.Add([]byte{0x08, 0x80, 0x0c, 0x80, 0x1c, 0x80, 0x0d, 0x13, 0x09, 0x00, 0x0f, 0x00, 0x2f, 0x00})             // chain b: forged on both caches, never-admitted unsigned, read-only hit

	chainIDs := [2]string{"fuzz-a", "fuzz-b"}
	var keys [2][4]*valkey.PrivKey
	for ch := range keys {
		for i := range keys[ch] {
			keys[ch][i] = valkey.Derive(chainIDs[ch], i)
		}
	}
	tuple := func(chain int, arg byte) (*valkey.PrivKey, *types.Vote) {
		key := keys[chain][arg&3]
		h, r := int64(1+(arg>>2)&3), int32((arg>>4)&3%3)
		vt := types.PrevoteType
		if arg&0x40 != 0 {
			vt = types.PrecommitType
		}
		var id types.BlockID
		if arg&0x80 == 0 {
			id.Hash = types.Hash{byte(h), byte(r), 0x5a}
		}
		return key, unsignedVote(key, vt, h, r, id)
	}
	commitShaped := func(v *types.Vote, sig []byte) *types.Vote {
		cs := *v
		cs.Timestamp = 0
		cs.Signature = sig
		return &cs
	}
	flipped := func(sig []byte, at byte) []byte {
		out := append([]byte(nil), sig...)
		out[int(at)%len(out)] ^= 1 << (at % 8)
		return out
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256] // 128 calls: longer inputs are slower, not deeper
		}
		caches := [2]*votesig.Cache{votesig.New(chainIDs[0]), votesig.New(chainIDs[1])}
		models := [2]*eagerCache{
			{chainID: chainIDs[0], admitted: map[eagerKey][]byte{}},
			{chainID: chainIDs[1], admitted: map[eagerKey][]byte{}},
		}
		var cast []*castVote
		castKeys := map[eagerKey]*castVote{}
		var signed uint64

		// sigOf is what a commit would carry for cv: the bytes Signature
		// gives while the vote is live, the ones it gave (or would have
		// given: signing is deterministic) once it is retired.
		sigOf := func(cv *castVote) []byte {
			if !cv.live {
				return cv.eager
			}
			sig := caches[cv.chain].Signature(cv.v)
			if !bytes.Equal(sig, cv.eager) {
				t.Fatalf("Signature of %+v differs from the eager signature", cv.v)
			}
			if cv.got == nil {
				cv.got = sig
				signed++
			} else if &sig[0] != &cv.got[0] {
				t.Fatalf("Signature of %+v returned a new slice", cv.v)
			}
			return sig
		}
		deliver := func(i, chain int, v, modelV *types.Vote, pub valkey.PubKey) {
			got := caches[i].VerifyVote(chainIDs[chain], v, pub)
			if want := models[i].verify(chain, chainIDs[chain], modelV, pub); got != want {
				t.Fatalf("cache %d: VerifyVote(%s, %+v) = %v, eager model %v", i, chainIDs[chain], v, got, want)
			}
		}

		for p := 0; p+1 < len(data); p += 2 {
			op, arg := data[p], data[p+1]
			chain, target, variant := int(op>>3&1), int(op>>4&1), op>>5&3
			var cv *castVote
			if len(cast) > 0 {
				cv = cast[int(arg)%len(cast)]
			}
			switch op & 7 {
			case 0:
				key, v := tuple(chain, arg)
				k := eagerKeyOf(chain, v)
				if castKeys[k] != nil {
					continue
				}
				eager := key.Sign(types.AppendVoteSignBytes(nil, chainIDs[chain], v))
				caches[chain].SignVote(key, v)
				if v.Signature != nil {
					t.Fatal("SignVote put bytes on the vote")
				}
				models[chain].admitted[k] = eager
				cv := &castVote{chain: chain, v: v, eager: eager, key: key, live: true}
				cast = append(cast, cv)
				castKeys[k] = cv
			case 1:
				if cv == nil || !cv.live {
					continue
				}
				withEager := *cv.v
				withEager.Signature = cv.eager
				deliver(cv.chain, cv.chain, cv.v, &withEager, cv.key.Pub())
			case 2:
				if cv == nil {
					continue
				}
				v := commitShaped(cv.v, sigOf(cv))
				deliver(target, cv.chain, v, v, cv.key.Pub())
			case 3:
				if cv == nil {
					continue
				}
				v := commitShaped(cv.v, flipped(sigOf(cv), op^arg))
				deliver(target, cv.chain, v, v, cv.key.Pub())
			case 4:
				victim, v := tuple(chain, arg)
				v.Signature = keys[chain][(arg+1)&3].Sign(types.AppendVoteSignBytes(nil, chainIDs[chain], v))
				deliver(target, chain, v, v, victim.Pub())
			case 5:
				key, v := tuple(chain, arg)
				if cv := castKeys[eagerKeyOf(chain, v)]; cv != nil && cv.live && target == chain {
					continue // admitted: that is op 1
				}
				deliver(target, chain, v, v, key.Pub())
			case 6:
				h := int64(1 + arg%5)
				caches[chain].PruneBelow(h)
				for k := range models[chain].admitted {
					if k.height < h {
						delete(models[chain].admitted, k)
					}
				}
				for _, cv := range cast {
					if cv.chain == chain && cv.v.Height < h {
						cv.live = false
					}
				}
			case 7:
				if cv == nil {
					continue
				}
				var sig []byte
				switch variant {
				case 0, 1:
					sig = sigOf(cv)
				case 2:
					sig = flipped(sigOf(cv), arg)
				}
				v := commitShaped(cv.v, sig)
				got := caches[target].ReadOnly().VerifyVote(chainIDs[cv.chain], v, cv.key.Pub())
				want := cv.key.Pub().Verify(types.AppendVoteSignBytes(nil, chainIDs[cv.chain], v), sig)
				if got != want {
					t.Fatalf("ReadOnly %d: VerifyVote(%+v) = %v, valkey %v", target, v, got, want)
				}
			}
			var gotSigned uint64
			for i, c := range caches {
				st, m := c.Stats(), models[i]
				if st.Verifications != m.verifications || st.Rejected != m.rejected || st.Hits != m.hits || st.Size != len(m.admitted) {
					t.Fatalf("op %d (%d, %#x): cache %d stats %+v, eager model verifications %d rejected %d hits %d size %d",
						p/2, op&7, arg, i, st, m.verifications, m.rejected, m.hits, len(m.admitted))
				}
				gotSigned += st.Signed
			}
			if gotSigned != signed {
				t.Fatalf("op %d: %d signatures made, %d cast votes' bytes asked for", p/2, gotSigned, signed)
			}
		}
	})
}
