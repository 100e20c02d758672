// Package chain is the composition root assembling one simulated Cosmos
// Gaia blockchain: application + IBC + transfer module + mempool +
// consensus engine + RPC full nodes, all running on a shared virtual
// clock. It also provides helpers to link two chains with an IBC channel
// the way the paper's Setup module does (§III-B).
package chain

import (
	"fmt"
	"time"

	"ibcbench/internal/app"
	"ibcbench/internal/eventindex"
	"ibcbench/internal/ibc"
	"ibcbench/internal/ibc/pfm"
	"ibcbench/internal/ibc/transfer"
	"ibcbench/internal/netem"
	"ibcbench/internal/obs"
	"ibcbench/internal/sim"
	"ibcbench/internal/tendermint/consensus"
	"ibcbench/internal/tendermint/mempool"
	"ibcbench/internal/tendermint/rpc"
	"ibcbench/internal/tendermint/store"
)

// primaryClientTimeout bounds how long clients of the primary full node
// wait for a reply (relayers' own full nodes set theirs in AddRPCNode).
const primaryClientTimeout = 10 * time.Second

// Config parameterizes one chain.
type Config struct {
	ChainID    string
	Validators int
	// FullProofs enables real merkle state commitments and proof
	// verification (correctness mode); performance experiments disable
	// it — the proof-handling cost is modeled in virtual time either way.
	FullProofs bool
	// Obs attaches the run's observability sinks (nil = disabled). The
	// chain forwards it to consensus and samples mempool depth and
	// scheduler queue length per commit.
	Obs *obs.Obs
}

// Chain bundles every component of one blockchain.
type Chain struct {
	ID       string
	App      *app.App
	Keeper   *ibc.Keeper
	Transfer *transfer.Module
	// Forward is the packet-forward middleware stacked over Transfer on
	// the ICS-20 port (multi-hop routes via packet memos).
	Forward *pfm.Middleware
	Pool    *mempool.Pool
	Store   *store.Store
	Engine  *consensus.Engine
	RPC     *rpc.Server // primary full node
	// Events is the chain's shared event index: one decode pass per
	// committed block, consumed by every RPC node's subscribers.
	Events *eventindex.Index
	// feed is the NewBlock frame every full node of the chain delivers.
	feed rpc.Feed

	sched    *sim.Scheduler
	network  *netem.Network
	rpcNodes int
	rpcHosts []netem.Host
	links    int

	// onHost notifies listeners (the topology deployer's geo placement)
	// when a late full-node host joins the chain.
	onHost []func(netem.Host)
}

// New assembles a chain on the shared scheduler and network.
func New(sched *sim.Scheduler, network *netem.Network, cfg Config) *Chain {
	a := app.New(cfg.ChainID, cfg.FullProofs)
	keeper := ibc.NewKeeper(a)
	xfer := transfer.New(a, keeper)
	// The middleware stack: PFM rebinds the transfer port, delegating
	// plain packets to the transfer module underneath.
	fwd := pfm.New(keeper, xfer)
	pool := mempool.New(a.CheckTx)
	stor := store.New()
	engine := consensus.New(sched, network, consensus.Config{
		ChainID:    cfg.ChainID,
		Validators: cfg.Validators,
		Obs:        cfg.Obs,
	}, a, pool, stor)

	c := &Chain{
		ID:       cfg.ChainID,
		App:      a,
		Keeper:   keeper,
		Transfer: xfer,
		Forward:  fwd,
		Pool:     pool,
		Store:    stor,
		Engine:   engine,
		Events:   eventindex.New(),
		sched:    sched,
		network:  network,
	}
	// The index hook is registered before any RPC node's PublishBlock, so
	// commit-hook ordering guarantees the single decode pass has run by
	// the time frames are assembled for subscribers.
	engine.OnCommit(func(cb *store.CommittedBlock) {
		infos, err := stor.TxsAtHeight(cb.Block.Header.Height)
		if err != nil {
			panic(fmt.Sprintf("chain %s: committed block %d missing from store: %v",
				cfg.ChainID, cb.Block.Header.Height, err))
		}
		c.Events.IndexTxs(cb.Block.Header.Height, cb.Block.Header.Time, infos)
	})
	if cfg.Obs != nil {
		// Per-commit level sample: mempool depth after the block's txs
		// were removed.
		depth := cfg.Obs.Reg.Histogram("chain/" + cfg.ChainID + "/mempool_depth")
		engine.OnCommit(func(*store.CommittedBlock) {
			depth.Observe(float64(pool.Size()))
		})
	}
	c.RPC = c.newRPCNode(engine.PrimaryHost(), primaryClientTimeout)
	return c
}

// newRPCNode creates an RPC server backed by this chain's state.
func (c *Chain) newRPCNode(host netem.Host, clientTimeout time.Duration) *rpc.Server {
	srv := rpc.New(c.sched, c.network, host, clientTimeout, c.Store, c.Pool,
		app.TxQueryCost, app.EventFrameBytes, c.App.AccountSequence, app.MsgCount, c.Events.At, &c.feed)
	srv.SetSettledQuery(func(p rpc.SettledProbe) bool {
		ctx := &app.Context{ChainID: c.ID, State: c.App.State(), Bank: c.App.Bank(), App: c.App}
		if p.Ack {
			// Ack/timeout settle by clearing the source commitment.
			return !c.Keeper.HasCommitment(ctx, p.Port, p.Channel, p.Sequence)
		}
		return c.Keeper.HasReceipt(ctx, p.Port, p.Channel, p.Sequence)
	})
	c.Engine.OnCommit(srv.PublishBlock)
	return srv
}

// AddRPCNode attaches an additional full node serving RPC (the paper
// runs one full node per relayer machine). It shares the canonical
// store/mempool but has its own serial query queue; its clients wait up
// to clientTimeout for a reply.
func (c *Chain) AddRPCNode(clientTimeout time.Duration) *rpc.Server {
	c.rpcNodes++
	host := netem.Host(fmt.Sprintf("%s/fullnode%d", c.ID, c.rpcNodes))
	c.rpcHosts = append(c.rpcHosts, host)
	for _, fn := range c.onHost {
		fn(host)
	}
	return c.newRPCNode(host, clientTimeout)
}

// Hosts lists every network host belonging to this chain: validator
// nodes plus attached full nodes.
func (c *Chain) Hosts() []netem.Host {
	out := append([]netem.Host(nil), c.Engine.Hosts()...)
	return append(out, c.rpcHosts...)
}

// OnHost registers a callback fired for each full-node host added after
// registration (geo placement of late-created hosts).
func (c *Chain) OnHost(fn func(netem.Host)) { c.onHost = append(c.onHost, fn) }

// Start begins block production.
func (c *Chain) Start() { c.Engine.Start() }

// ClientStateFor describes this chain for a counterparty's light client.
func (c *Chain) ClientStateFor() ibc.ClientState {
	var vals []ibc.ValidatorRecord
	for _, v := range c.Engine.ValidatorSet().Validators {
		vals = append(vals, ibc.ValidatorRecord{PubKey: v.PubKey.Bytes(), Power: v.VotingPower})
	}
	return ibc.ClientState{ChainID: c.ID, Validators: vals}
}

// TimeoutElapsed reports whether p's timeout passed on c, its
// destination, by c's committed blocks: the condition under which a
// relayer could prove the timeout and trigger the refund.
func (c *Chain) TimeoutElapsed(p *ibc.Packet) bool {
	if p.TimeoutHeight > 0 && c.Store.Height() >= p.TimeoutHeight {
		return true
	}
	if p.TimeoutTimestamp > 0 {
		if be := c.Events.At(c.Events.Height()); be != nil && be.BlockTime >= p.TimeoutTimestamp {
			return true
		}
	}
	return false
}

// Pair is two chains linked by an IBC channel.
type Pair struct {
	A, B *Chain
	// PortID/ChannelID of the linked channel on both ends.
	Port      string
	ChannelAB string
	ChannelBA string
	// ClientOnA tracks B; ClientOnB tracks A.
	ClientOnA string
	ClientOnB string
}

// Link opens an unordered transfer channel between two chains, seeding
// both ends open with ibc.SeedOpenEnd. Each call consumes the next free
// ordinal n on each chain, so on a the link uses channel-n, connection-n
// and 07-tendermint-n, and a chain can be linked to many counterparties
// (hub, mesh and line topologies). Each new client's stored state
// carries the other chain's app.State, the stand-in for the proofs
// performance mode does not carry (see ibc.SeedOpenEnd).
func Link(a, b *Chain) *Pair {
	ordA, ordB := a.links, b.links
	a.links++
	b.links++
	p := &Pair{
		A: a, B: b,
		Port:      transfer.PortID,
		ChannelAB: fmt.Sprintf("channel-%d", ordA),
		ChannelBA: fmt.Sprintf("channel-%d", ordB),
		ClientOnA: fmt.Sprintf("07-tendermint-%d", ordA),
		ClientOnB: fmt.Sprintf("07-tendermint-%d", ordB),
	}
	endA := ibc.EndIDs{Port: p.Port, Channel: p.ChannelAB, Connection: fmt.Sprintf("connection-%d", ordA), Client: p.ClientOnA}
	endB := ibc.EndIDs{Port: p.Port, Channel: p.ChannelBA, Connection: fmt.Sprintf("connection-%d", ordB), Client: p.ClientOnB}
	ibc.SeedOpenEnd(a.App.State(), endA, endB, b.ClientStateFor(), b.App.State())
	a.App.State().CommitTx()
	ibc.SeedOpenEnd(b.App.State(), endB, endA, a.ClientStateFor(), a.App.State())
	b.App.State().CommitTx()
	return p
}
