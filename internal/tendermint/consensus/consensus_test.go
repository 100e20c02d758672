package consensus

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"
	"time"

	"ibcbench/internal/abci"
	"ibcbench/internal/netem"
	"ibcbench/internal/sim"
	"ibcbench/internal/tendermint/mempool"
	"ibcbench/internal/tendermint/store"
	"ibcbench/internal/tendermint/types"
	"ibcbench/internal/valkey"
)

// stubTx is a fixed-size transaction for consensus tests.
type stubTx struct {
	id  string
	gas uint64
}

func (t stubTx) Hash() types.Hash  { return sha256.Sum256([]byte(t.id)) }
func (t stubTx) Size() int         { return 100 }
func (t stubTx) GasWanted() uint64 { return t.gas }

// stubApp counts executions and burns the declared gas.
type stubApp struct {
	delivered int
	commits   int
	began     []int64
}

func (a *stubApp) CheckTx(types.Tx) error              { return nil }
func (a *stubApp) BeginBlock(h int64, _ time.Duration) { a.began = append(a.began, h) }
func (a *stubApp) EndBlock(int64)                      {}
func (a *stubApp) DeliverTx(tx types.Tx) abci.TxResult {
	a.delivered++
	return abci.TxResult{GasUsed: tx.GasWanted()}
}
func (a *stubApp) Commit() types.Hash {
	a.commits++
	return sha256.Sum256([]byte(fmt.Sprintf("state-%d", a.commits)))
}

type harness struct {
	sched *sim.Scheduler
	net   *netem.Network
	app   *stubApp
	pool  *mempool.Pool
	store *store.Store
	eng   *Engine
}

func newHarness(tb testing.TB, mutate func(*Config)) *harness {
	tb.Helper()
	sched := sim.NewScheduler()
	net := netem.New(sched, sim.NewRNG(1), netem.DefaultWAN())
	cfg := Config{ChainID: "chain-a"}
	if mutate != nil {
		mutate(&cfg)
	}
	app := &stubApp{}
	pool := mempool.New(app.CheckTx)
	stor := store.New(cfg.ChainID)
	eng := New(sched, net, cfg, app, pool, stor)
	return &harness{sched: sched, net: net, app: app, pool: pool, store: stor, eng: eng}
}

// runEachEvent drives the harness to the virtual deadline one scheduler
// event at a time, calling check after every event, so a test can inspect
// every intermediate engine state of a run. The event sequence is the
// one a single RunUntil would execute.
func (h *harness) runEachEvent(t *testing.T, until time.Duration, check func()) {
	t.Helper()
	defer func() { h.sched.MaxEvents = 0 }()
	for {
		h.sched.MaxEvents = h.sched.Processed() + 1
		err := h.sched.RunUntil(until)
		check()
		if err == nil {
			return
		}
		if !errors.Is(err, sim.ErrStopped) {
			t.Fatalf("run: %v", err)
		}
	}
}

func TestChainProducesBlocks(t *testing.T) {
	h := newHarness(t, nil)
	h.eng.Start()
	if err := h.sched.RunUntil(60 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	// With a 5s floor, ~60s should yield around 11-12 blocks.
	got := h.store.Height()
	if got < 10 || got > 13 {
		t.Fatalf("height after 60s = %d, want ~11", got)
	}
	if h.eng.EmptyBlocks() != uint64(got) {
		t.Fatalf("all blocks should be empty, got %d of %d", h.eng.EmptyBlocks(), got)
	}
}

func TestBlockIntervalFloor(t *testing.T) {
	h := newHarness(t, nil)
	h.eng.Start()
	if err := h.sched.RunUntil(120 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	var prev time.Duration
	for height := int64(1); height <= h.store.Height(); height++ {
		cb, err := h.store.Block(height)
		if err != nil {
			t.Fatal(err)
		}
		bt := cb.Block.Header.Time
		if height > 1 {
			if iv := bt - prev; iv < 5*time.Second {
				t.Fatalf("interval before height %d = %v, below 5s floor", height, iv)
			}
		}
		prev = bt
	}
}

func TestTransactionsCommitted(t *testing.T) {
	h := newHarness(t, nil)
	for i := 0; i < 50; i++ {
		if err := h.pool.Add(stubTx{id: fmt.Sprintf("tx%d", i), gas: 1000}); err != nil {
			t.Fatal(err)
		}
	}
	h.eng.Start()
	if err := h.sched.RunUntil(30 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if h.app.delivered != 50 {
		t.Fatalf("delivered %d txs, want 50", h.app.delivered)
	}
	if h.pool.Size() != 0 {
		t.Fatalf("mempool still holds %d txs", h.pool.Size())
	}
	cb, err := h.store.Block(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cb.Block.Data) != 50 {
		t.Fatalf("block 1 carries %d txs", len(cb.Block.Data))
	}
}

func TestCommitVerifiableByLightClient(t *testing.T) {
	h := newHarness(t, nil)
	h.eng.Start()
	if err := h.sched.RunUntil(30 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	for height := int64(1); height <= h.store.Height(); height++ {
		cb, err := h.store.Block(height)
		if err != nil {
			t.Fatal(err)
		}
		blockID := types.BlockID{Hash: cb.Block.Header.Hash()}
		if err := h.eng.ValidatorSet().VerifyCommit("chain-a", blockID, height, cb.Commit); err != nil {
			t.Fatalf("commit for height %d fails light-client verification: %v", height, err)
		}
	}
}

func TestHeadersChainTogether(t *testing.T) {
	h := newHarness(t, nil)
	h.eng.Start()
	if err := h.sched.RunUntil(40 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	for height := int64(2); height <= h.store.Height(); height++ {
		cur, _ := h.store.Block(height)
		prev, _ := h.store.Block(height - 1)
		if cur.Block.Header.LastBlockID.Hash != prev.Block.Header.Hash() {
			t.Fatalf("height %d does not chain onto %d", height, height-1)
		}
		if cur.Block.LastCommit.Height != height-1 {
			t.Fatalf("height %d carries commit for %d", height, cur.Block.LastCommit.Height)
		}
	}
}

func TestToleratesMinorityValidatorFailure(t *testing.T) {
	h := newHarness(t, nil)
	// Take down a non-primary validator (node 0 is the RPC full node
	// whose commit defines block availability).
	h.eng.SetValidatorDown(4, true) // 1 of 5 down: < 1/3 power
	h.eng.Start()
	if err := h.sched.RunUntil(90 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if h.store.Height() < 8 {
		t.Fatalf("height = %d with one validator down, chain stalled", h.store.Height())
	}
	// Rounds where the down validator proposes must have failed over.
	if h.eng.TotalRounds() <= uint64(h.store.Height()) {
		t.Fatalf("rounds = %d, expected failed rounds beyond %d heights",
			h.eng.TotalRounds(), h.store.Height())
	}
}

func TestHaltsWithMajorityFailure(t *testing.T) {
	h := newHarness(t, nil)
	h.eng.SetValidatorDown(3, true)
	h.eng.SetValidatorDown(4, true) // 2 of 5 down: 40% > 1/3
	h.eng.Start()
	if err := h.sched.RunUntil(120 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if h.store.Height() != 0 {
		t.Fatalf("chain committed %d blocks with >1/3 power down", h.store.Height())
	}
}

func TestRecoveryAfterValidatorRestart(t *testing.T) {
	h := newHarness(t, nil)
	h.eng.SetValidatorDown(3, true)
	h.eng.SetValidatorDown(4, true)
	h.eng.Start()
	if err := h.sched.RunUntil(60 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if h.store.Height() != 0 {
		t.Fatal("committed during outage")
	}
	h.eng.SetValidatorDown(4, false)
	if err := h.sched.RunUntil(180 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if h.store.Height() == 0 {
		t.Fatal("chain did not recover after validator restart")
	}
}

func TestExecutionTimeStretchesInterval(t *testing.T) {
	h := newHarness(t, nil)
	// One enormous block: gas chosen so execution takes ~20s
	// (20s / 24ns per gas ≈ 8.3e8 gas).
	if err := h.pool.Add(stubTx{id: "huge", gas: 850_000_000}); err != nil {
		t.Fatal(err)
	}
	h.eng.Start()
	if err := h.sched.RunUntil(60 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	b1, err := h.store.Block(1)
	if err != nil {
		t.Fatal("block 1 missing")
	}
	b2, err := h.store.Block(2)
	if err != nil {
		t.Fatal("block 2 missing")
	}
	iv := b2.Block.Header.Time - b1.Block.Header.Time
	if iv < 15*time.Second {
		t.Fatalf("interval after heavy block = %v, execution time not reflected", iv)
	}
}

func TestOnCommitCallback(t *testing.T) {
	h := newHarness(t, nil)
	var heights []int64
	h.eng.OnCommit(func(cb *store.CommittedBlock) {
		heights = append(heights, cb.Block.Header.Height)
	})
	h.eng.Start()
	if err := h.sched.RunUntil(30 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(heights) != int(h.store.Height()) {
		t.Fatalf("callbacks = %d, height = %d", len(heights), h.store.Height())
	}
	for i, got := range heights {
		if got != int64(i+1) {
			t.Fatalf("callback heights out of order: %v", heights)
		}
	}
}

func TestHalt(t *testing.T) {
	h := newHarness(t, nil)
	h.eng.Start()
	if err := h.sched.RunUntil(12 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	h.eng.Halt()
	before := h.store.Height()
	if err := h.sched.RunUntil(60 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	// At most one in-flight height may complete after Halt.
	if h.store.Height() > before+1 {
		t.Fatalf("height advanced from %d to %d after halt", before, h.store.Height())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, types.Hash) {
		sched := sim.NewScheduler()
		net := netem.New(sched, sim.NewRNG(7), netem.DefaultWAN())
		app := &stubApp{}
		pool := mempool.New(nil)
		stor := store.New("chain-a")
		eng := New(sched, net, Config{ChainID: "chain-a"}, app, pool, stor)
		for i := 0; i < 10; i++ {
			if err := pool.Add(stubTx{id: fmt.Sprintf("t%d", i), gas: 500}); err != nil {
				panic(err)
			}
		}
		eng.Start()
		if err := sched.RunUntil(42 * time.Second); err != nil {
			panic(err)
		}
		cb, err := stor.Block(stor.Height())
		if err != nil {
			panic(err)
		}
		return stor.Height(), cb.Block.Header.Hash()
	}
	h1, hash1 := run()
	h2, hash2 := run()
	if h1 != h2 || hash1 != hash2 {
		t.Fatal("identical seeds produced different chains")
	}
}

// --- shared vote-verification engine -----------------------------------------

// run7 drives an honest 7-validator chain for 60 virtual seconds.
func run7(t *testing.T) *harness {
	t.Helper()
	h := newHarness(t, func(c *Config) { c.Validators = 7 })
	h.eng.Start()
	if err := h.sched.RunUntil(60 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if h.store.Height() < 10 {
		t.Fatalf("height = %d, chain stalled", h.store.Height())
	}
	return h
}

// TestVoteVerificationPinnedLinear pins the shared engine's signature
// work on an honest run to zero: castVote admits every vote it casts,
// so each of its V deliveries hits the cache and no ed25519 check is
// performed at all.
func TestVoteVerificationPinnedLinear(t *testing.T) {
	const vals = 7
	h := run7(t)
	st := h.eng.VoteCache().Stats()
	if st.Verifications != 0 {
		t.Fatalf("%d full verifications on an honest run, want 0", st.Verifications)
	}
	if st.Rejected != 0 {
		t.Fatalf("%d honest votes rejected", st.Rejected)
	}
	// The run is shorter than the prune window, so every vote cast is
	// still admitted: Size counts them.
	cast := uint64(st.Size)
	// At most one prevote + one precommit per validator per round.
	if max := 2 * vals * h.eng.TotalRounds(); cast == 0 || cast > max {
		t.Fatalf("%d votes cast over %d rounds, want 1..%d", cast, h.eng.TotalRounds(), max)
	}
	// Each vote is delivered to all V nodes and every delivery hits.
	if st.Hits != vals*cast {
		t.Fatalf("hits = %d, want %d (%d votes x %d receivers)", st.Hits, vals*cast, cast, vals)
	}
}

// TestReferencePathCountsQuadraticFanout replays the per-receiver
// reference path — a full ed25519 check on every delivery — beside an
// honest 7-validator run: each vote the engine casts is read in-package
// while it is live and fully verified, and the run itself performs no
// check at all. The reference path would have verified each vote once per
// receiver, V x cast checks, and that is exactly the shared engine's hit
// count.
func TestReferencePathCountsQuadraticFanout(t *testing.T) {
	const vals = 7
	h := newHarness(t, func(c *Config) { c.Validators = vals })
	type voteID struct {
		addr   valkey.Address
		height int64
		round  int32
		typ    types.SignedMsgType
	}
	verified := map[voteID]bool{}
	h.eng.Start()
	h.runEachEvent(t, 60*time.Second, func() {
		for _, pv := range h.eng.liveVote {
			v := &pv.v
			id := voteID{v.ValidatorAddress, v.Height, v.Round, v.Type}
			if verified[id] {
				continue
			}
			val := h.eng.valset.ByAddress(v.ValidatorAddress)
			if !val.PubKey.Verify(types.VoteSignBytes("chain-a", v), h.eng.votes.Signature(v)) {
				t.Fatalf("cast vote %+v fails full verification", id)
			}
			verified[id] = true
		}
	})
	if h.store.Height() < 10 {
		t.Fatalf("height = %d, chain stalled", h.store.Height())
	}
	st := h.eng.VoteCache().Stats()
	if st.Verifications != 0 || st.Rejected != 0 {
		t.Fatalf("shared path performed checks: %+v", st)
	}
	// The run is shorter than the prune window: Size counts every vote cast.
	cast := uint64(len(verified))
	if cast != uint64(st.Size) {
		t.Fatalf("fully verified %d cast votes, the engine admitted %d", cast, st.Size)
	}
	if st.Hits != vals*cast {
		t.Fatalf("hits = %d, want %d: one per delivery the reference path would verify", st.Hits, vals*cast)
	}
}

// TestSignsOnlyCommitSignatures pins the signing work of an honest run:
// the cache signs exactly the precommits commit assembly copies into a
// block's commit, and no prevote, late precommit or precommit of a round
// that did not commit.
func TestSignsOnlyCommitSignatures(t *testing.T) {
	const vals = 7
	h := run7(t)
	var carried uint64
	for height := int64(1); height <= h.store.Height(); height++ {
		cb, err := h.store.Block(height)
		if err != nil {
			t.Fatal(err)
		}
		for _, sig := range cb.Commit.Signatures {
			if sig.Flag != types.BlockIDFlagAbsent {
				carried++
			}
		}
	}
	st := h.eng.VoteCache().Stats()
	if st.Signed != carried {
		t.Fatalf("%d signatures made, %d non-absent commit signatures stored", st.Signed, carried)
	}
	// The run is shorter than the prune window: Size counts every vote cast.
	cast := uint64(st.Size)
	if 2*st.Signed > cast {
		t.Fatalf("%d signatures made for %d votes cast, want at most half", st.Signed, cast)
	}
	if st.Hits != vals*cast || st.Verifications != 0 || st.Rejected != 0 {
		t.Fatalf("%+v, want %d hits and no full check", st, vals*cast)
	}
}

// TestEveryCommittedBlockVerifiesUncached replays every committed block
// of an honest run through plain VerifyCommit (nil verifier): each commit
// signature, made by the cache at commit assembly and never checked, gets
// a real ed25519 verification here.
func TestEveryCommittedBlockVerifiesUncached(t *testing.T) {
	h := run7(t)
	for height := int64(1); height <= h.store.Height(); height++ {
		cb, err := h.store.Block(height)
		if err != nil {
			t.Fatal(err)
		}
		blockID := types.BlockID{Hash: cb.Block.Header.Hash()}
		if err := h.eng.ValidatorSet().VerifyCommit("chain-a", blockID, height, cb.Commit); err != nil {
			t.Fatalf("height %d: commit fails full verification: %v", height, err)
		}
	}
	if st := h.eng.VoteCache().Stats(); st.Verifications != 0 || st.Rejected != 0 {
		t.Fatalf("replay went through the cache: %+v", st)
	}
}

// TestCacheRejectsInjectedVotes injects forged, stranger and duplicate
// votes directly into the gossip handler with the cache enabled.
func TestCacheRejectsInjectedVotes(t *testing.T) {
	h := newHarness(t, nil)
	// Place every node at height 1, round 0 without running the network.
	h.eng.startHeight(1)
	receiver := h.eng.nodes[1]

	// Forged: claims validator 0's address, signed by a different key.
	forged := &types.Vote{
		Type:             types.PrevoteType,
		Height:           1,
		Round:            0,
		BlockID:          types.BlockID{Hash: types.Hash{9}},
		ValidatorAddress: h.eng.nodes[0].addr,
	}
	forged.Signature = valkey.Derive("attacker", 0).Sign(types.VoteSignBytes("chain-a", forged))
	h.eng.onVote(receiver, forged)
	if receiver.prevotes[0].count() != 0 {
		t.Fatal("forged vote recorded")
	}

	// Stranger: a well-signed vote from a key outside the validator set.
	stranger := valkey.Derive("chain-a", 99)
	alien := &types.Vote{
		Type:             types.PrevoteType,
		Height:           1,
		Round:            0,
		ValidatorAddress: stranger.Pub().Address(),
	}
	alien.Signature = stranger.Sign(types.VoteSignBytes("chain-a", alien))
	h.eng.onVote(receiver, alien)
	if receiver.prevotes[0].count() != 0 {
		t.Fatal("stranger vote recorded")
	}

	// Valid vote from validator 2 (keys are derived deterministically).
	val2 := valkey.Derive("chain-a", 2)
	good := &types.Vote{
		Type:             types.PrevoteType,
		Height:           1,
		Round:            0,
		BlockID:          types.BlockID{Hash: types.Hash{9}},
		ValidatorAddress: val2.Pub().Address(),
	}
	good.Signature = val2.Sign(types.VoteSignBytes("chain-a", good))
	h.eng.onVote(receiver, good)
	if receiver.prevotes[0].count() != 1 {
		t.Fatal("valid vote not recorded")
	}

	// Duplicate delivery: recorded once, power not double-counted.
	h.eng.onVote(receiver, good)
	if receiver.prevotes[0].count() != 1 {
		t.Fatal("duplicate vote double-recorded")
	}
	if p := h.eng.totalVotePower(receiver.prevotes[0]); p != 10 {
		t.Fatalf("duplicate vote double-counted power: %d", p)
	}

	// Tampered: the cached tuple must not vouch for a flipped signature.
	tampered := *good
	tampered.Signature = append([]byte(nil), good.Signature...)
	tampered.Signature[0] ^= 0xff
	other := h.eng.nodes[3]
	h.eng.onVote(other, &tampered)
	if other.prevotes[0].count() != 0 {
		t.Fatal("tampered vote accepted via cache")
	}

	// The same valid vote delivered to another node hits the cache.
	before := h.eng.VoteCache().Stats()
	h.eng.onVote(other, good)
	after := h.eng.VoteCache().Stats()
	if other.prevotes[0].count() != 1 {
		t.Fatal("valid vote not recorded at second node")
	}
	if after.Hits != before.Hits+1 || after.Verifications != before.Verifications {
		t.Fatalf("second delivery re-verified (before=%+v after=%+v)", before, after)
	}
}

// --- counted quorum tallies ---------------------------------------------------

// referenceQuorum is the map-walk tally the counted round tallies
// replaced: every check rebuilds per-block power from the recorded votes.
// It returns the 2/3+ block (if any) and the total power voted.
func referenceQuorum(e *Engine, rt *roundTally) (types.BlockID, bool, int64) {
	power := make(map[types.BlockID]int64)
	var total int64
	for _, v := range rt.votes {
		if v == nil {
			continue
		}
		if val := e.valset.ByAddress(v.ValidatorAddress); val != nil {
			power[v.BlockID] += val.VotingPower
			total += val.VotingPower
		}
	}
	for id, p := range power {
		if p*3 > e.valset.TotalPower()*2 {
			return id, true, total
		}
	}
	return types.BlockID{}, false, total
}

// TestQuorumTallyReferenceEquivalence compares the counted tallies with
// the reference map walk on every tally of a 7-validator run, after every
// event: quorumFor and totalVotePower must give its answers (at most one
// block ID can exceed 2/3 of total power, so map iteration order never
// picks the winner). One validator is down, so the rounds it should
// propose fail and nil quorums are compared too.
func TestQuorumTallyReferenceEquivalence(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.Validators = 7 })
	for i := 0; i < 20; i++ {
		if err := h.pool.Add(stubTx{id: fmt.Sprintf("q%d", i), gas: 400}); err != nil {
			t.Fatal(err)
		}
	}
	h.eng.SetValidatorDown(6, true)
	h.eng.Start()
	var checked, quorums, nilQuorums int
	h.runEachEvent(t, 60*time.Second, func() {
		for _, n := range h.eng.nodes {
			for _, tallies := range []map[int32]*roundTally{n.prevotes, n.precommits} {
				for r, rt := range tallies {
					id, ok := h.eng.quorumFor(rt)
					refID, refOK, refPower := referenceQuorum(h.eng, rt)
					if id != refID || ok != refOK {
						t.Fatalf("node %d height %d round %d: quorum (%x, %v), reference (%x, %v)",
							n.index, n.height, r, id.Hash[:4], ok, refID.Hash[:4], refOK)
					}
					if p := h.eng.totalVotePower(rt); p != refPower {
						t.Fatalf("node %d height %d round %d: power %d, reference %d", n.index, n.height, r, p, refPower)
					}
					checked++
					if ok {
						quorums++
						if id.IsZero() {
							nilQuorums++
						}
					}
				}
			}
		}
	})
	t.Logf("%d tally states compared: %d with a quorum, %d of them nil", checked, quorums, nilQuorums)
	if h.store.Height() < 8 {
		t.Fatalf("height = %d, chain stalled", h.store.Height())
	}
	if nilQuorums == 0 || quorums == nilQuorums || quorums == checked {
		t.Fatalf("%d of %d tallies had a quorum, %d nil: every outcome must be compared", quorums, checked, nilQuorums)
	}
}

// TestVotePoolSteadyStateAllocs pins the gossip path's vote recycling:
// once the chain reaches steady state, the population of pooled vote
// wrappers (free list + live) stops growing — later heights reuse
// retired wrappers instead of allocating fresh types.Vote values for
// every cast.
func TestVotePoolSteadyStateAllocs(t *testing.T) {
	h := newHarness(t, nil)
	h.eng.Start()
	if err := h.sched.RunUntil(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	warm := len(h.eng.votePool) + len(h.eng.liveVote)
	warmHeight := h.store.Height()
	if warm == 0 || warmHeight < 3 {
		t.Fatalf("warmup produced %d wrappers over %d heights", warm, warmHeight)
	}
	if err := h.sched.RunUntil(120 * time.Second); err != nil {
		t.Fatal(err)
	}
	if h.store.Height() < warmHeight+10 {
		t.Fatalf("steady window committed too few blocks: %d -> %d", warmHeight, h.store.Height())
	}
	steady := len(h.eng.votePool) + len(h.eng.liveVote)
	if steady != warm {
		t.Fatalf("vote wrapper population grew from %d to %d over %d further heights — pool not recycling",
			warm, steady, h.store.Height()-warmHeight)
	}
	if len(h.eng.votePool) == 0 {
		t.Fatal("free list empty after a committed height: startHeight is not retiring votes")
	}
}

// BenchmarkQuorumTally measures one quorum check on a full round of
// prevotes: the counted tally answers from running power sums in
// O(distinct block IDs); the reference map walk (referenceQuorum)
// rebuilds a power map over the whole validator set per check.
func BenchmarkQuorumTally(b *testing.B) {
	for _, vals := range []int{4, 16, 64} {
		h := newHarness(b, func(c *Config) { c.Validators = vals })
		rt := &roundTally{votes: make([]*types.Vote, vals)}
		id := types.BlockID{Hash: types.Hash{42}}
		for ord, val := range h.eng.valset.Validators {
			rt.votes[ord] = &types.Vote{
				Type:             types.PrevoteType,
				Height:           1,
				BlockID:          id,
				ValidatorAddress: val.PubKey.Address(),
			}
			rt.add(id, val.VotingPower)
		}
		b.Run(fmt.Sprintf("counted-vals-%d", vals), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := h.eng.quorumFor(rt); !ok {
					b.Fatal("full round has no quorum")
				}
			}
		})
		b.Run(fmt.Sprintf("reference-vals-%d", vals), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok, _ := referenceQuorum(h.eng, rt); !ok {
					b.Fatal("full round has no quorum")
				}
			}
		})
	}
}
