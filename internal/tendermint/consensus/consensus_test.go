package consensus

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
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
	stor := store.New()
	eng := New(sched, net, cfg, app, pool, stor)
	return &harness{sched: sched, net: net, app: app, pool: pool, store: stor, eng: eng}
}

// count reports the votes a tally has recorded.
func (rt *roundTally) count() int {
	n := 0
	for _, v := range rt.votes {
		if v != nil {
			n++
		}
	}
	return n
}

// vote makes validator n's vote the way castVote does, without
// gossiping it.
func (h *harness) vote(n *node, vt types.SignedMsgType, height int64, id types.BlockID) *types.Vote {
	return &types.Vote{Type: vt, Height: height, BlockID: id, ValidatorAddress: n.addr}
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

func TestDeterminism(t *testing.T) {
	run := func() (int64, types.Hash) {
		sched := sim.NewScheduler()
		net := netem.New(sched, sim.NewRNG(7), netem.DefaultWAN())
		app := &stubApp{}
		pool := mempool.New(nil)
		stor := store.New()
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

// --- commit signatures ---------------------------------------------------------

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

// TestSignsOnlyCommitSignatures pins the signing work of an honest run:
// the engine signs exactly the precommits commit assembly copies into a
// block's commit, one per non-absent entry, and no other vote.
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
	// 2V votes are cast per height: at most the V precommits are signed.
	if max := vals * h.eng.TotalRounds(); carried == 0 || st.Signed > max {
		t.Fatalf("%d signatures made over %d heights, want 1..%d", st.Signed, h.eng.TotalRounds(), max)
	}
	if st.Verifications != 0 || st.Hits != 0 || st.Rejected != 0 {
		t.Fatalf("%+v: the signer verifies nothing", st)
	}
}

// TestEveryCommittedBlockVerifiesUncached replays every committed block
// of an honest run through VerifyCommit: each commit signature, made at
// commit assembly and never checked inside the chain, gets a full
// valkey.PubKey.Verify here.
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
}

// TestCacheRejectsInjectedVotes injects votes the gossip handler drops
// into it directly: a stranger's, one for round 1 and a duplicate. Votes
// carry no signature, so forged and tampered signatures are the light
// client's to refuse (types.TestVerifyCommitRejectsForgery).
func TestCacheRejectsInjectedVotes(t *testing.T) {
	h := newHarness(t, nil)
	// Place every node at height 1 without running the network.
	h.eng.startHeight(1)
	receiver := h.eng.nodes[1]
	id := types.BlockID{Hash: types.Hash{9}}

	// Stranger: a key outside the validator set has no tally slot.
	stranger := valkey.Derive("chain-a", 99)
	h.eng.onVote(receiver, &types.Vote{Type: types.PrevoteType, Height: 1, BlockID: id, ValidatorAddress: stranger.Pub().Address()})
	if receiver.prevotes.count() != 0 {
		t.Fatal("stranger vote recorded")
	}

	// Validator 2's vote for round 1: a height runs only round 0, so the
	// vote has no tally.
	val2 := h.eng.nodes[2]
	later := h.vote(val2, types.PrevoteType, 1, id)
	later.Round = 1
	h.eng.onVote(receiver, later)
	if receiver.prevotes.count() != 0 {
		t.Fatal("round-1 vote recorded")
	}

	good := h.vote(val2, types.PrevoteType, 1, id)
	h.eng.onVote(receiver, good)
	if receiver.prevotes.count() != 1 {
		t.Fatal("valid vote not recorded")
	}

	// Duplicate delivery: recorded once, power not double-counted.
	h.eng.onVote(receiver, good)
	if receiver.prevotes.count() != 1 {
		t.Fatal("duplicate vote double-recorded")
	}
	if p := receiver.prevotes.totalPower; p != 10 {
		t.Fatalf("duplicate vote double-counted power: %d", p)
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
		if ord, ok := e.valset.Index(v.ValidatorAddress); ok {
			power[v.BlockID] += e.valset.Validators[ord].VotingPower
			total += e.valset.Validators[ord].VotingPower
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
// the reference map walk: quorumFor and the running power sum must give
// its answers (at most one block ID can exceed 2/3 of total power, so map
// iteration order never picks the winner). First on every tally of an
// honest 7-validator run after every event, where the only quorums are
// for proposed blocks; then on tallies crafted at the primary of a
// 5-validator chain for the outcomes an honest run never reaches.
func TestQuorumTallyReferenceEquivalence(t *testing.T) {
	compare := func(e *Engine, n *node, rt *roundTally) (types.BlockID, bool) {
		t.Helper()
		id, ok := e.quorumFor(rt)
		refID, refOK, refPower := referenceQuorum(e, rt)
		if id != refID || ok != refOK {
			t.Fatalf("node %d height %d: quorum (%x, %v), reference (%x, %v)",
				n.index, n.height, id.Hash[:4], ok, refID.Hash[:4], refOK)
		}
		if rt.totalPower != refPower {
			t.Fatalf("node %d height %d: power %d, reference %d", n.index, n.height, rt.totalPower, refPower)
		}
		return id, ok
	}

	h := newHarness(t, func(c *Config) { c.Validators = 7 })
	for i := 0; i < 20; i++ {
		if err := h.pool.Add(stubTx{id: fmt.Sprintf("q%d", i), gas: 400}); err != nil {
			t.Fatal(err)
		}
	}
	h.eng.Start()
	var checked, quorums int
	h.runEachEvent(t, 60*time.Second, func() {
		for _, n := range h.eng.nodes {
			for _, rt := range []*roundTally{&n.prevotes, &n.precommits} {
				id, ok := compare(h.eng, n, rt)
				checked++
				if ok {
					quorums++
					if id.IsZero() {
						t.Fatalf("node %d height %d: nil quorum on an honest run", n.index, n.height)
					}
				}
			}
		}
	})
	t.Logf("%d tally states compared, %d with a quorum", checked, quorums)
	if h.store.Height() < 8 {
		t.Fatalf("height = %d, chain stalled", h.store.Height())
	}
	if quorums == 0 || quorums == checked {
		t.Fatalf("%d of %d tallies had a quorum: both outcomes must be compared", quorums, checked)
	}

	// Crafted precommits at the primary, which holds the proposal for
	// block A: one entry per validator, "-" for a precommit that never
	// arrives. Only a 2/3 quorum for A commits.
	for _, c := range []struct {
		name      string
		votes     string
		quorum    bool
		nilQuorum bool
		commits   bool
	}{
		{"block quorum", "AAAA-", true, false, true},
		{"nil quorum", "0000-", true, true, false},
		{"split vote", "AAB0-", false, false, false},
		{"two of five absent", "AAA--", false, false, false},
	} {
		h := newHarness(t, nil)
		h.eng.startHeight(1)
		primary := h.eng.nodes[h.eng.primary]
		primary.proposal = &types.Block{Header: types.Header{ChainID: "chain-a", Height: 1}}
		ids := map[byte]types.BlockID{
			'A': {Hash: primary.proposal.Header.Hash()},
			'B': {Hash: types.Hash{0xb}},
			'0': {},
		}
		for i, n := range h.eng.nodes {
			if id, ok := ids[c.votes[i]]; ok {
				h.eng.onVote(primary, h.vote(n, types.PrecommitType, 1, id))
			}
		}
		id, ok := compare(h.eng, primary, &primary.precommits)
		if ok != c.quorum || (ok && id.IsZero() != c.nilQuorum) {
			t.Fatalf("%s: quorum (%x, %v), want quorum %v nil %v", c.name, id.Hash[:4], ok, c.quorum, c.nilQuorum)
		}
		if primary.committed != c.commits || (h.eng.committedHeight == 1) != c.commits {
			t.Fatalf("%s: committed %v (height %d), want %v", c.name, primary.committed, h.eng.committedHeight, c.commits)
		}
	}
}

// TestSplitPrecommitsPanic: with every precommit of a height tallied and
// no 2/3 quorum for one block there is no later round to move to, so the
// primary panics, naming the chain and the height, instead of stalling.
func TestSplitPrecommitsPanic(t *testing.T) {
	h := newHarness(t, nil)
	h.eng.startHeight(1)
	primary := h.eng.nodes[h.eng.primary]
	got := func() (got any) {
		defer func() { got = recover() }()
		for i, n := range h.eng.nodes {
			id := types.BlockID{Hash: types.Hash{7}}
			if i >= 3 {
				id = types.BlockID{}
			}
			h.eng.onVote(primary, h.vote(n, types.PrecommitType, 1, id))
		}
		return nil
	}()
	msg, _ := got.(string)
	if !strings.Contains(msg, "chain-a") || !strings.Contains(msg, "height 1") {
		t.Fatalf("3 block / 2 nil precommits: recovered %v, want a panic naming chain-a and height 1", got)
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
