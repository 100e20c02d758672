// Package consensus implements the Tendermint BFT consensus engine
// described in §II-A of the paper: an elected proposer, two voting stages
// (pre-vote and pre-commit), 2/3+ quorums and a minimum block interval.
//
// Every height runs exactly one round. Tendermint's round change exists
// to outlive crashed validators and lost messages; here every validator
// of a chain is always up and no message between two of them is ever
// dropped (chaos faults only touch cross-group pairs), so each validator
// receives the proposal, prevotes and precommits it, and round 0 always
// commits. A height whose precommits all arrive without a 2/3 quorum for
// one block is a defect, and the engine panics rather than stall.
//
// Validators are actors exchanging signed proposal and vote messages over
// the emulated network; a designated primary full node's commit defines
// when a block (and its RPC-visible data) becomes available. Application
// execution happens once against a canonical state machine, with a
// gas-proportional virtual execution time — this is what makes "blocks
// containing large amounts of transactions increase the block interval
// beyond 5 seconds" (§III-D).
package consensus

import (
	"fmt"
	"time"

	"ibcbench/internal/abci"
	"ibcbench/internal/netem"
	"ibcbench/internal/obs"
	"ibcbench/internal/sim"
	"ibcbench/internal/simconf"
	"ibcbench/internal/tendermint/mempool"
	"ibcbench/internal/tendermint/store"
	"ibcbench/internal/tendermint/types"
	"ibcbench/internal/valkey"
)

// Config parameterizes one chain's consensus engine. The timing model —
// block floor, execution time per gas and gossip bandwidth — is the
// paper's calibration, read from simconf where it is used.
type Config struct {
	ChainID string

	// Validators is the validator-set size (0 = the paper's 5 per chain).
	Validators int

	// Obs attaches the run's observability sinks; nil (the default)
	// disables instrumentation. Only the per-block commit path records
	// spans — the per-vote hot path stays untouched.
	Obs *obs.Obs
}

// proposalMsg carries a proposed block between validators.
type proposalMsg struct {
	height int64
	block  *types.Block
}

// blockPower accumulates one block ID's voting power within a height.
type blockPower struct {
	id    types.BlockID
	power int64
}

// roundTally is one node's received votes of one type for its current
// height: votes indexed by validator ordinal (nil = not seen) with running
// power counts, so duplicate detection and the 2/3 quorum check are O(1)
// per vote instead of a map walk over the validator set.
type roundTally struct {
	votes      []*types.Vote
	totalPower int64
	blocks     []blockPower
}

// reset empties the tally for a new height, keeping its storage.
func (rt *roundTally) reset() {
	clear(rt.votes)
	rt.totalPower = 0
	rt.blocks = rt.blocks[:0]
}

// add records a verified, non-duplicate vote's power.
func (rt *roundTally) add(id types.BlockID, power int64) {
	rt.totalPower += power
	for i := range rt.blocks {
		if rt.blocks[i].id == id {
			rt.blocks[i].power += power
			return
		}
	}
	rt.blocks = append(rt.blocks, blockPower{id: id, power: power})
}

// node is one validator actor. Its proposal, tallies and vote flags
// belong to its current height's only round.
type node struct {
	index int
	host  netem.Host
	key   *valkey.PrivKey
	addr  valkey.Address

	height    int64
	committed bool

	proposal   *types.Block
	prevotes   roundTally
	precommits roundTally

	prevoted     bool
	precommitted bool
}

// pooledVote is a recyclable gossiped vote. Delivery closures capture
// the wrapper and the generation at cast time; a recycled wrapper bumps
// the generation, so stale deliveries drop without touching the reused
// vote. A vote carries no signature: commit assembly signs the
// precommits it copies into fresh slices, so recycling a wrapper never
// touches a commit.
type pooledVote struct {
	v   types.Vote
	gen uint64
}

// Engine drives consensus for one chain.
type Engine struct {
	sched *sim.Scheduler
	net   *netem.Network
	cfg   Config

	app    abci.Application
	pool   *mempool.Pool
	stor   *store.Store
	valset *types.ValidatorSet
	// nodes[i] is valset.Validators[i]; round tallies are indexed the same.
	nodes []*node

	// valsHash is valset.Hash(): the set never changes for the engine's
	// life, so every header reuses the one computation.
	valsHash types.Hash

	// signer signs the precommits commit assembly copies into a commit.
	signer CommitSigner

	// votePool recycles gossiped vote allocations. A cast vote stays
	// live for its height only (every receiver drops mismatched-height
	// votes before any other use), so startHeight retires the previous
	// height's votes back to the free list; the generation stamp turns a
	// late delivery of a retired vote into the same silent drop the
	// height check used to produce.
	votePool []*pooledVote
	liveVote []*pooledVote

	// primary is the full node serving RPC; its commit defines block
	// availability to clients.
	primary int

	lastBlockID      types.BlockID
	lastCommit       *types.Commit
	lastAppHash      types.Hash
	lastProposalTime time.Duration
	committedHeight  int64

	emptyBlocks uint64
	totalRounds uint64

	// tr + interned IDs for block/exec spans (nil tracer = disabled).
	tr        *obs.Tracer
	obsTrack  obs.TrackID
	nameBlock obs.NameID
	nameExec  obs.NameID

	onCommit []func(*store.CommittedBlock)

	started bool
}

// New assembles an engine. The mempool and store are owned by the caller
// so that the RPC layer can share them.
func New(sched *sim.Scheduler, net *netem.Network, cfg Config, app abci.Application, pool *mempool.Pool, stor *store.Store) *Engine {
	if cfg.Validators <= 0 {
		cfg.Validators = simconf.DefaultValidators
	}
	e := &Engine{
		sched: sched,
		net:   net,
		cfg:   cfg,
		app:   app,
		pool:  pool,
		stor:  stor,
	}
	if cfg.Obs != nil {
		e.tr = cfg.Obs.Tracer
		e.obsTrack = e.tr.Track("chain/" + cfg.ChainID)
		e.nameBlock = e.tr.Name("block")
		e.nameExec = e.tr.Name("exec")
	}
	vals := make([]*types.Validator, cfg.Validators)
	for i := 0; i < cfg.Validators; i++ {
		key := valkey.Derive(cfg.ChainID, i)
		vals[i] = &types.Validator{
			Address:     key.Pub().Address(),
			PubKey:      key.Pub(),
			VotingPower: 10,
		}
		votes := make([]*types.Vote, 2*cfg.Validators)
		e.nodes = append(e.nodes, &node{
			index:      i,
			host:       netem.Host(fmt.Sprintf("%s/val%d", cfg.ChainID, i)),
			key:        key,
			addr:       key.Pub().Address(),
			prevotes:   roundTally{votes: votes[:cfg.Validators:cfg.Validators]},
			precommits: roundTally{votes: votes[cfg.Validators:]},
		})
	}
	e.valset = types.NewValidatorSet(vals)
	e.valsHash = e.valset.Hash()
	return e
}

// ValidatorSet exposes the chain's validator set (for light clients).
func (e *Engine) ValidatorSet() *types.ValidatorSet { return e.valset }

// CommitSigner signs the precommits a block's commit carries, the only
// vote signatures anything reads: the votes validators gossip within a
// chain carry none, and a light client verifies the commit signatures
// of every header it accepts (types.ValidatorSet.VerifyCommit).
type CommitSigner struct {
	buf   []byte // sign bytes, reused across signatures
	stats SignerStats
}

// SignerStats counts a chain's signing work.
type SignerStats struct {
	// Signed counts commit signatures made.
	Signed uint64
	// Verifications, Hits and Rejected always read 0: no vote is verified
	// inside a chain. They remain only for the benchmark's work counts,
	// which read them through VoteCache; its next revision removes them
	// together with its tendermint.votesig rows.
	Verifications, Hits, Rejected uint64
}

// sign returns v's signature under key, made into a fresh slice.
func (s *CommitSigner) sign(key *valkey.PrivKey, chainID string, v *types.Vote) []byte {
	s.buf = types.AppendVoteSignBytes(s.buf[:0], chainID, v)
	s.stats.Signed++
	return key.Sign(s.buf)
}

// Stats snapshots the signing counters.
func (s *CommitSigner) Stats() SignerStats { return s.stats }

// VoteCache exposes the chain's commit signer under the name the
// benchmark reads it by.
func (e *Engine) VoteCache() *CommitSigner { return &e.signer }

// PrimaryHost is the network host of the RPC-serving full node.
func (e *Engine) PrimaryHost() netem.Host { return e.nodes[e.primary].host }

// Hosts lists every validator node's network host, in index order (the
// geo region model places all of a chain's machines in its region).
func (e *Engine) Hosts() []netem.Host {
	out := make([]netem.Host, len(e.nodes))
	for i, n := range e.nodes {
		out[i] = n.host
	}
	return out
}

// EmptyBlocks reports how many committed blocks carried no transactions.
func (e *Engine) EmptyBlocks() uint64 { return e.emptyBlocks }

// TotalRounds reports consensus rounds run: one per height started.
func (e *Engine) TotalRounds() uint64 { return e.totalRounds }

// OnCommit registers a callback fired when a block becomes available at
// the primary full node (after app execution).
func (e *Engine) OnCommit(fn func(*store.CommittedBlock)) {
	e.onCommit = append(e.onCommit, fn)
}

// Start schedules the first proposal. Call once.
func (e *Engine) Start() {
	if e.started {
		return
	}
	e.started = true
	e.lastAppHash = e.app.Commit() // genesis app hash
	e.sched.After(0, func() { e.startHeight(1) })
}

func (e *Engine) startHeight(h int64) {
	e.totalRounds++
	// Retire the previous height's gossiped votes: nothing references
	// them past this point (tallies are reset below, commit signatures
	// were value-copied at commit time), and the generation bump turns
	// any still-in-flight delivery into the drop the height check in
	// onVote would have produced anyway.
	for _, pv := range e.liveVote {
		pv.gen++
		e.votePool = append(e.votePool, pv)
	}
	e.liveVote = e.liveVote[:0]
	for _, n := range e.nodes {
		n.height = h
		n.committed = false
		n.proposal = nil
		n.prevotes.reset()
		n.precommits.reset()
		n.prevoted = false
		n.precommitted = false
	}
	proposer := e.valset.Proposer(h, 0)
	i, _ := e.valset.Index(proposer.Address)
	e.propose(e.nodes[i], h)
}

// propose reaps the mempool, assembles the block and gossips it.
func (e *Engine) propose(n *node, h int64) {
	e.lastProposalTime = e.sched.Now()
	txs := e.pool.Reap()
	header := types.Header{
		Version:            1,
		ChainID:            e.cfg.ChainID,
		Height:             h,
		Time:               e.sched.Now(),
		LastBlockID:        e.lastBlockID,
		LastCommitHash:     e.lastCommit.Hash(),
		DataHash:           types.DataHash(txs),
		ValidatorsHash:     e.valsHash,
		NextValidatorsHash: e.valsHash,
		AppHash:            e.lastAppHash,
		ProposerAddress:    n.addr,
	}
	block := &types.Block{Header: header, Data: txs, LastCommit: e.lastCommit}

	// Gossip the proposal: per-link latency plus size/bandwidth (an empty
	// block adds nothing to the latency).
	extra := time.Duration(int64(block.TotalSize()) * int64(time.Second) / simconf.ProposalBytesPerSecond)
	msg := &proposalMsg{height: h, block: block}
	for _, dst := range e.nodes {
		dst := dst
		e.net.Send(n.host, dst.host, func() {
			if extra == 0 {
				e.onProposal(dst, msg)
				return
			}
			e.sched.After(extra, func() { e.onProposal(dst, msg) })
		})
	}
}

func (e *Engine) onProposal(n *node, msg *proposalMsg) {
	if n.height != msg.height || n.proposal != nil {
		return
	}
	// Validate the header chains onto our view.
	h := msg.block.Header
	if h.ChainID != e.cfg.ChainID || h.Height != msg.height || h.LastBlockID != e.lastBlockID {
		return
	}
	n.proposal = msg.block
	e.castVote(n, types.PrevoteType, types.BlockID{Hash: h.Hash()})
	// If a quorum of precommits arrived before the proposal, commit now.
	e.maybeCommit(n)
}

// castVote gossips n's vote for its height, unsigned.
func (e *Engine) castVote(n *node, vt types.SignedMsgType, blockID types.BlockID) {
	switch vt {
	case types.PrevoteType:
		if n.prevoted {
			return
		}
		n.prevoted = true
	case types.PrecommitType:
		if n.precommitted {
			return
		}
		n.precommitted = true
	}
	var pv *pooledVote
	if k := len(e.votePool); k > 0 {
		pv = e.votePool[k-1]
		e.votePool[k-1] = nil
		e.votePool = e.votePool[:k-1]
	} else {
		pv = &pooledVote{}
	}
	e.liveVote = append(e.liveVote, pv)
	pv.v = types.Vote{
		Type:             vt,
		Height:           n.height,
		BlockID:          blockID,
		Timestamp:        e.sched.Now(),
		ValidatorAddress: n.addr,
	}
	gen := pv.gen
	for _, dst := range e.nodes {
		dst := dst
		e.net.Send(n.host, dst.host, func() {
			if pv.gen != gen {
				return // vote retired: its height already committed
			}
			e.onVote(dst, &pv.v)
		})
	}
}

func (e *Engine) onVote(n *node, v *types.Vote) {
	if n.height != v.Height || v.Round != 0 {
		return
	}
	// Votes come only from this chain's validators, all in this process,
	// so none is verified; a stranger's address has no tally slot.
	ord, ok := e.valset.Index(v.ValidatorAddress)
	if !ok {
		return
	}
	val := e.valset.Validators[ord]
	switch v.Type {
	case types.PrevoteType:
		if n.prevotes.votes[ord] != nil {
			return
		}
		n.prevotes.votes[ord] = v
		n.prevotes.add(v.BlockID, val.VotingPower)
		e.onPrevoteQuorum(n)
	case types.PrecommitType:
		if n.precommits.votes[ord] != nil {
			return
		}
		n.precommits.votes[ord] = v
		n.precommits.add(v.BlockID, val.VotingPower)
		e.onPrecommitQuorum(n)
	}
}

// quorumFor returns the block ID holding a 2/3+ power majority, if any,
// in O(distinct block IDs) from the tally's running power sums. At most
// one ID can exceed 2/3 of total power, so the answer equals a walk over
// the recorded votes (the tests keep that walk as the reference).
func (e *Engine) quorumFor(rt *roundTally) (types.BlockID, bool) {
	for i := range rt.blocks {
		if rt.blocks[i].power*3 > e.valset.TotalPower()*2 {
			return rt.blocks[i].id, true
		}
	}
	return types.BlockID{}, false
}

func (e *Engine) onPrevoteQuorum(n *node) {
	if n.precommitted {
		return
	}
	if id, ok := e.quorumFor(&n.prevotes); ok {
		// Precommit the majority block if we have it, nil otherwise.
		if !id.IsZero() && n.proposal != nil && n.proposal.Header.Hash() == id.Hash {
			e.castVote(n, types.PrecommitType, id)
		} else {
			e.castVote(n, types.PrecommitType, types.BlockID{})
		}
	}
}

func (e *Engine) onPrecommitQuorum(n *node) {
	if n.committed {
		return
	}
	rt := &n.precommits
	if id, ok := e.quorumFor(rt); ok && !id.IsZero() {
		e.maybeCommit(n)
		return
	}
	if rt.totalPower == e.valset.TotalPower() {
		// Every precommit is in and no block holds 2/3: there is no later
		// round to move to, so the height could never commit.
		split := ""
		for _, b := range rt.blocks {
			split += fmt.Sprintf(" %x=%d", b.id.Hash[:4], b.power)
		}
		panic(fmt.Sprintf("consensus: chain %s height %d: all %d precommit power tallied without a 2/3 block quorum (split:%s)",
			e.cfg.ChainID, n.height, rt.totalPower, split))
	}
}

// maybeCommit commits at node n if it has the proposal and a precommit
// quorum for it.
func (e *Engine) maybeCommit(n *node) {
	prop := n.proposal
	if n.committed || prop == nil {
		return
	}
	id, ok := e.quorumFor(&n.precommits)
	if !ok || id.IsZero() || prop.Header.Hash() != id.Hash {
		return
	}
	n.committed = true
	if n.index == e.primary {
		e.commitCanonical(prop, n, id)
	}
}

// commitCanonical executes the block against the application and, after
// the gas-proportional execution time, appends it to the store and fires
// commit callbacks. It then schedules the next height.
func (e *Engine) commitCanonical(block *types.Block, n *node, id types.BlockID) {
	if block.Header.Height <= e.committedHeight {
		return
	}
	e.committedHeight = block.Header.Height

	// Assemble the canonical commit from the precommits this node saw.
	// These are the only vote signatures anything reads, so this is where
	// each is signed, with its validator's own key.
	commit := &types.Commit{Height: block.Header.Height, BlockID: id}
	for i, val := range e.valset.Validators {
		sig := types.CommitSig{Flag: types.BlockIDFlagAbsent, ValidatorAddress: val.Address}
		if v := n.precommits.votes[i]; v != nil {
			if v.BlockID == id {
				sig.Flag = types.BlockIDFlagCommit
			} else {
				sig.Flag = types.BlockIDFlagNil
			}
			sig.Timestamp = v.Timestamp
			sig.Signature = e.signer.sign(e.nodes[i].key, e.cfg.ChainID, v)
		}
		commit.Signatures = append(commit.Signatures, sig)
	}

	// Execute against the canonical application.
	e.app.BeginBlock(block.Header.Height, e.sched.Now())
	results := make([]abci.TxResult, len(block.Data))
	var gasUsed uint64
	for i, tx := range block.Data {
		results[i] = e.app.DeliverTx(tx)
		gasUsed += results[i].GasUsed
	}
	e.app.EndBlock(block.Header.Height)
	appHash := e.app.Commit()

	execTime := time.Duration(int64(gasUsed) * simconf.ExecNanosPerGas)
	e.lastBlockID = id
	e.lastCommit = commit
	e.lastAppHash = appHash
	if len(block.Data) == 0 {
		e.emptyBlocks++
	}

	cb := &store.CommittedBlock{Block: block, Commit: commit, Results: results}
	e.sched.After(execTime, func() {
		if err := e.stor.Append(cb); err != nil {
			// Heights are engine-controlled; a gap is a programming error.
			panic(err)
		}
		e.pool.Update(block.Data)
		if e.tr != nil {
			// One "block" span per height (proposal time -> availability)
			// nesting an "exec" child for the gas-proportional execution.
			now := e.sched.Now()
			e.tr.CompleteArg(e.obsTrack, e.nameBlock, block.Header.Time, now, uint64(block.Header.Height))
			e.tr.CompleteArg(e.obsTrack, e.nameExec, now-execTime, now, gasUsed)
		}
		for _, fn := range e.onCommit {
			fn(cb)
		}
		// Next proposal honours both execution time and the interval floor.
		next := e.lastProposalTime + simconf.MinBlockInterval
		now := e.sched.Now()
		if next < now {
			next = now
		}
		h := block.Header.Height + 1
		e.sched.At(next, func() { e.startHeight(h) })
	})
}
