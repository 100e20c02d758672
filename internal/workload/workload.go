// Package workload implements the paper's Benchmark module: the
// Cross-chain Workload Connector submitting fungible-token transfer
// batches through the relayer's full node (§III-B, §III-D).
//
// Every transaction carries 100 MsgTransfer messages (the relayer's
// batching cap) and each user account submits at most one transaction
// per block — the paper's workaround for the Cosmos "account sequence
// mismatch" limitation. Input rates are expressed in requests per second
// assuming the 5-second block floor: a rate of R means a batch of 5R
// transfers submitted every block window.
package workload

import (
	"fmt"
	"time"

	"ibcbench/internal/app"
	"ibcbench/internal/chain"
	"ibcbench/internal/ibc"
	"ibcbench/internal/ibc/transfer"
	"ibcbench/internal/metrics"
	"ibcbench/internal/netem"
	"ibcbench/internal/sim"
	"ibcbench/internal/simconf"
	"ibcbench/internal/tendermint/rpc"
	"ibcbench/internal/tendermint/store"
	"ibcbench/internal/tendermint/types"
)

// Stats counts request outcomes (Table I's columns).
type Stats struct {
	// Requested counts transfers handed to the connector.
	Requested int
	// Submitted counts transfers whose transaction entered the mempool.
	Submitted int
	// Failed counts transfers whose submission was rejected or timed out.
	Failed int
}

// Generator drives transfer submission against the source chain.
type Generator struct {
	sched   *sim.Scheduler
	rng     *sim.RNG
	source  *chain.Chain
	destTop func() int64 // destination height, for timeouts
	rpcNode *rpc.Server
	host    netem.Host
	tracker *metrics.Tracker

	// TimeoutBlocks sets packet timeout height = dest height + this.
	TimeoutBlocks int64
	// SourceChannel is the transfer-port channel transfers leave through
	// (per-edge on multi-channel chains).
	SourceChannel string
	// AccountPrefix namespaces this generator's user accounts so several
	// generators can share one source chain without sequence clashes.
	AccountPrefix string
	// Memo is attached to every transfer (a pfm forward memo turns the
	// generator's transfers into multi-hop forwarded routes).
	Memo string
	// Denom is the token each transfer sends one unit of: uatom, which
	// the generator funds its accounts with, unless Carry set it.
	Denom string
	// RoundTrip sends every transfer to its sender's own name on the
	// destination, where the next leg of a round trip spends it (Carry).
	RoundTrip bool
	// carried is set by Carry: the accounts hold what they send, so
	// none is created or funded.
	carried bool

	accounts []string
	nextSeq  map[string]uint64
	// receivers holds each account's destination name, built the first
	// time the account sends (the map is made then too).
	receivers map[string]string
	nonce     uint64
	// acctCursor rotates account usage across batches: the paper scales
	// the number of concurrent user accounts with the submitted volume,
	// so consecutive windows never reuse an account whose previous
	// transaction is still unconfirmed.
	acctCursor int

	// broadcastAt remembers when each workload tx was broadcast so the
	// paper's latency origin ("from the moment transfer messages are
	// broadcast") can be keyed per packet once sequences are assigned at
	// commit time.
	broadcastAt map[types.Hash]time.Duration

	// keys accumulates, in commit order, the packet keys this generator's
	// transfers produced — the attribution handle for callers that must
	// follow exactly their own packets on a shared channel.
	keys []metrics.PacketKey

	stats Stats
}

// NewOnChannel creates a generator submitting transfers from src to dst
// over the given source-side channel, through the given RPC node of the
// source chain (the relayer's full node, as in the paper's tool).
func NewOnChannel(sched *sim.Scheduler, rng *sim.RNG, src, dst *chain.Chain, sourceChannel string, node *rpc.Server, tracker *metrics.Tracker) *Generator {
	g := &Generator{
		sched:         sched,
		rng:           rng,
		source:        src,
		destTop:       func() int64 { return dst.Store.Height() },
		rpcNode:       node,
		host:          netem.Host("workload/driver-" + src.ID + "-" + sourceChannel),
		tracker:       tracker,
		TimeoutBlocks: 10000,
		SourceChannel: sourceChannel,
		AccountPrefix: "user",
		Denom:         "uatom",
		nextSeq:       make(map[string]uint64),
		broadcastAt:   make(map[types.Hash]time.Duration),
	}
	if tracker != nil {
		src.Engine.OnCommit(func(cb *store.CommittedBlock) { g.recordBroadcasts(src.ID, cb) })
	}
	return g
}

// recordBroadcasts keys each committed packet back to the virtual time
// its transaction was broadcast. The transactions come from the chain's
// event index, which went over this block already: chain.New registers
// the index hook ahead of every other commit hook. The index lists only
// successful transactions that emitted packets; one that failed has none
// to record. The packets are read off the transaction's own events,
// which keeps event order across channels, the order PacketKeys promises.
func (g *Generator) recordBroadcasts(chainID string, cb *store.CommittedBlock) {
	for _, te := range g.source.Events.At(cb.Block.Header.Height).Txs {
		hash := te.Info.Tx.Hash()
		at, ok := g.broadcastAt[hash]
		if !ok {
			continue
		}
		delete(g.broadcastAt, hash)
		for _, ev := range te.Info.Result.Events {
			if ev.Type != "send_packet" {
				continue
			}
			p := ev.Data.(*ibc.Packet)
			key := metrics.PacketKey{SrcChain: chainID, Channel: p.SourceChannel, Sequence: p.Sequence}
			g.keys = append(g.keys, key)
			g.tracker.Record(key, metrics.StepTransferBroadcast, at)
			// The Analysis module reads commitment directly from chain
			// data (the Cross-chain Data Connector), so confirmation is
			// recorded even when the relayer loses the event frame.
			g.tracker.Record(key, metrics.StepTransferConfirmation, g.sched.Now())
		}
	}
}

// ObserveDestHeight replaces the generator's destination-height view
// (used only to stamp packet timeout heights) with one tracked from the
// given destination RPC node's block frames. The default closure reads
// the destination store directly; the observed height lags it by a
// frame's network delivery, as a client's view of another chain does,
// and every deployed generator stamps its timeouts this way.
func (g *Generator) ObserveDestHeight(node *rpc.Server) {
	var observed int64
	g.destTop = func() int64 { return observed }
	node.Subscribe(g.host, func(f *rpc.EventFrame) {
		if f.Height > observed {
			observed = f.Height
		}
	})
}

// Stats reports submission outcomes so far.
func (g *Generator) Stats() Stats { return g.stats }

// Host reports the generator's network address (geo placement).
func (g *Generator) Host() netem.Host { return g.host }

// PacketKeys returns, in commit order, the keys of every packet this
// generator's committed transfers produced (requires a tracker).
func (g *Generator) PacketKeys() []metrics.PacketKey { return g.keys }

// EnsureAccounts pre-funds n workload accounts on the source chain.
func (g *Generator) EnsureAccounts(n int) {
	for len(g.accounts) < n {
		name := fmt.Sprintf("%s-%04d", g.AccountPrefix, len(g.accounts))
		g.source.App.CreateAccount(name, app.Coin{Denom: "uatom", Amount: 1 << 50})
		g.accounts = append(g.accounts, name)
		g.nextSeq[name] = 0
	}
}

// Carry makes g the next leg of a round trip after prev, whose transfers
// have all landed on g's source chain as denom: g sends denom from the
// accounts prev sent from, each to its own name again. The accounts are
// registered on g's source chain if they are new there, and g signs at
// their committed sequences.
func (g *Generator) Carry(prev *Generator, denom string) {
	g.Denom, g.RoundTrip, g.carried = denom, true, true
	a := g.source.App
	for _, name := range prev.accounts[:prev.acctCursor] {
		seq, err := a.AccountSequence(name)
		if err != nil {
			a.CreateAccount(name)
		}
		g.accounts = append(g.accounts, name)
		g.nextSeq[name] = seq
	}
}

// SubmitBatch submits `transfers` transfer requests now, split into
// transactions of 100 messages (RelayerMaxMsgsPerTx) from distinct
// accounts. It models the paper's multi-account submission: each account
// signs with its locally tracked sequence and retries through a re-query
// on mismatch.
func (g *Generator) SubmitBatch(transfers int) {
	txCount := g.request(transfers)
	if !g.carried {
		// Rotate through enough distinct accounts that a window never
		// reuses an account from the previous two windows.
		g.EnsureAccounts(3 * txCount)
	}
	for i := 0; i < txCount; i++ {
		g.submitTx(g.accounts[g.acctCursor%len(g.accounts)], txSize(transfers, i), 0)
		g.acctCursor++
	}
}

// request counts transfers as requested and returns how many
// transactions of at most RelayerMaxMsgsPerTx messages carry them.
func (g *Generator) request(transfers int) int {
	if transfers <= 0 {
		return 0
	}
	g.stats.Requested += transfers
	if g.tracker != nil {
		g.tracker.AddRequested(transfers)
	}
	return (transfers + simconf.RelayerMaxMsgsPerTx - 1) / simconf.RelayerMaxMsgsPerTx
}

// txSize is the message count of transaction i of a batch: full
// transactions first, the remainder last.
func txSize(transfers, i int) int {
	return min(simconf.RelayerMaxMsgsPerTx, transfers-i*simconf.RelayerMaxMsgsPerTx)
}

// transferTx builds one batch transaction of n transfers from account at
// its tracked sequence, numbering the messages from the generator's nonce,
// and stamps its broadcast time.
func (g *Generator) transferTx(account string, n int) (*app.Tx, uint64) {
	timeoutHeight := g.destTop() + g.TimeoutBlocks
	receiver := account
	if !g.RoundTrip {
		receiver = g.receiverOf(account)
	}
	// One array holds the transaction's messages: a pointer into it boxes
	// into app.Msg without an allocation of its own.
	transfers := make([]transfer.MsgTransfer, n)
	msgs := make([]app.Msg, n)
	for j := range msgs {
		g.nonce++
		transfers[j] = transfer.MsgTransfer{
			Sender:        account,
			Receiver:      receiver,
			Token:         app.Coin{Denom: g.Denom, Amount: 1},
			SourcePort:    transfer.PortID,
			SourceChannel: g.SourceChannel,
			TimeoutHeight: timeoutHeight,
			Memo:          g.Memo,
			Nonce:         g.nonce,
		}
		msgs[j] = &transfers[j]
	}
	seq := g.nextSeq[account]
	tx := app.NewTx(account, seq, g.nonce, msgs)
	g.broadcastAt[tx.Hash()] = g.sched.Now()
	return tx, seq
}

// receiverOf names the destination account an account's transfers
// credit.
func (g *Generator) receiverOf(account string) string {
	r, ok := g.receivers[account]
	if !ok {
		if g.receivers == nil {
			g.receivers = make(map[string]string)
		}
		r = "receiver-" + account
		g.receivers[account] = r
	}
	return r
}

// submitTx builds and broadcasts one batch transaction for an account.
func (g *Generator) submitTx(account string, n int, attempt int) {
	tx, seq := g.transferTx(account, n)
	g.rpcNode.BroadcastTxSync(g.host, tx, func(err error) {
		switch {
		case err == nil:
			g.nextSeq[account] = seq + 1
			g.stats.Submitted += n
		case attempt < 2:
			// CLI behaviour: re-query the committed sequence and retry.
			g.rpcNode.QueryAccountSequence(g.host, account, func(s uint64, qerr error) {
				if qerr == nil {
					g.nextSeq[account] = s
				}
				g.submitTx(account, n, attempt+1)
			})
		default:
			g.stats.Failed += n
		}
	})
}

// RunConstantRate submits batches of rate*5 transfers at every block
// window for the given number of windows (the paper's input-rate
// convention: "a request rate of 1,000 transfers per second corresponds
// to a batch of 5,000 transfers being submitted every 5 seconds").
func (g *Generator) RunConstantRate(ratePerSec int, windows int) {
	g.SubmitSpread(ratePerSec*int(simconf.MinBlockInterval/time.Second)*windows, windows)
}

// SubmitSpread splits total transfers evenly across numBlocks submission
// windows, 1 ms into each block window (Fig. 13's submission strategies;
// one window is Fig. 12's single-block burst).
func (g *Generator) SubmitSpread(total, numBlocks int) {
	if numBlocks <= 0 {
		return
	}
	per := total / numBlocks
	extra := total - per*numBlocks
	for wIdx := 0; wIdx < numBlocks; wIdx++ {
		n := per
		if wIdx < extra {
			n++
		}
		w := wIdx
		amount := n
		g.sched.At(time.Duration(w)*simconf.MinBlockInterval+time.Millisecond, func() {
			g.SubmitBatch(amount)
		})
	}
}

// InjectDirect stages transfers straight into the source mempool so they
// all land in a single block — the paper's §V scenario "we generated a
// block containing 1,000 cross-chain transactions with 100 IBC transfers
// each". Bypasses the RPC submission path.
func (g *Generator) InjectDirect(transfers int) {
	txCount := g.request(transfers)
	g.EnsureAccounts(txCount)
	for i := 0; i < txCount; i++ {
		n := txSize(transfers, i)
		account := g.accounts[i]
		tx, seq := g.transferTx(account, n)
		if err := g.source.Pool.Add(tx); err == nil {
			g.nextSeq[account] = seq + 1
			g.stats.Submitted += n
		} else {
			g.stats.Failed += n
		}
	}
}
