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
	"errors"
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
	// Submitted counts transfers whose transaction, first or retried,
	// entered the mempool: a reply said so, or it committed.
	Submitted int
	// Failed counts transfers whose every attempt failed and which have
	// not committed.
	Failed int
}

// broadcast is one broadcast transaction: when it left, and the
// submission (an index into Generator.subs) it is an attempt of.
type broadcast struct {
	at  time.Duration
	sub int
}

// submission is one transaction's worth of requested transfers and the
// Stats counter holding them (nil: none yet).
type submission struct {
	n       int
	counted *int
}

// Generator drives transfer submission against the source chain.
type Generator struct {
	sched  *sim.Scheduler
	rng    *sim.RNG
	source *chain.Chain
	// dest is the destination chain, whose height stamps timeouts:
	// its store's, or, once observing is set, the height observed in
	// its frames.
	dest      *chain.Chain
	observing bool
	observed  int64
	rpcNode   *rpc.Server
	host      netem.Host
	tracker   *metrics.Tracker

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
	broadcastAt map[types.Hash]broadcast
	subs        []submission

	// keys accumulates, in commit order, the packet keys this generator's
	// transfers produced, once KeepPacketKeys set keepKeys — the
	// attribution handle for callers that must follow exactly their own
	// packets on a shared channel. Every other caller reads its packets
	// off the tracker, which indexes them by channel and sequence.
	keys     []metrics.PacketKey
	keepKeys bool

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
		dest:          dst,
		rpcNode:       node,
		host:          netem.Host("workload/driver-" + src.ID + "-" + sourceChannel),
		tracker:       tracker,
		TimeoutBlocks: 10000,
		SourceChannel: sourceChannel,
		AccountPrefix: "user",
		Denom:         "uatom",
		nextSeq:       make(map[string]uint64),
		broadcastAt:   make(map[types.Hash]broadcast),
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
		b, ok := g.broadcastAt[hash]
		if !ok {
			continue
		}
		delete(g.broadcastAt, hash)
		g.count(b.sub, &g.stats.Submitted)
		for _, ev := range te.Info.Result.Events {
			if ev.Type != "send_packet" {
				continue
			}
			p := ev.Data.(*ibc.Packet)
			key := metrics.PacketKey{SrcChain: chainID, Channel: p.SourceChannel, Sequence: p.Sequence}
			if g.keepKeys {
				g.keys = append(g.keys, key)
			}
			g.tracker.Record(key, metrics.StepTransferBroadcast, b.at)
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
	g.observing = true
	node.Subscribe(g.host, g)
}

// OnFrame observes a destination block frame.
func (g *Generator) OnFrame(f *rpc.EventFrame) { g.observed = max(g.observed, f.Height) }

// destHeight is the destination height timeouts are stamped from.
func (g *Generator) destHeight() int64 {
	if g.observing {
		return g.observed
	}
	return g.dest.Store.Height()
}

// Stats reports submission outcomes so far.
func (g *Generator) Stats() Stats { return g.stats }

// Host reports the generator's network address (geo placement).
func (g *Generator) Host() netem.Host { return g.host }

// KeepPacketKeys makes the generator list the keys of the packets its
// committed transfers produce from now on, for PacketKeys.
func (g *Generator) KeepPacketKeys() { g.keepKeys = true }

// PacketKeys returns, in commit order, the keys of every packet this
// generator's committed transfers produced since KeepPacketKeys (requires
// a tracker); nil for a generator that keeps none.
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
		g.subs = append(g.subs, submission{n: txSize(transfers, i)})
		g.submit(&attempt{g: g, account: g.accounts[g.acctCursor%len(g.accounts)], sub: len(g.subs) - 1})
		g.acctCursor++
	}
}

// count moves submission i's transfers to counter c, Submitted or
// Failed; once submitted, they stay.
func (g *Generator) count(i int, c *int) {
	sub := &g.subs[i]
	if sub.counted == &g.stats.Submitted {
		return
	}
	if sub.counted != nil {
		*sub.counted -= sub.n
	}
	sub.counted, *c = c, *c+sub.n
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

// transferTx builds one attempt of submission sub, a batch transaction
// of its transfers from account at its tracked sequence, numbering the
// messages from the generator's nonce, and stamps its broadcast time.
func (g *Generator) transferTx(account string, sub int) (*app.Tx, uint64) {
	n := g.subs[sub].n
	timeoutHeight := g.destHeight() + g.TimeoutBlocks
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
	g.broadcastAt[tx.Hash()] = broadcast{g.sched.Now(), sub}
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

// attempt is one broadcast attempt of submission sub for an account,
// and the handler of its broadcast reply and of the sequence re-query
// before its retry, which reuses it.
type attempt struct {
	g       *Generator
	account string
	sub, n  int // n counts the attempts before this one
	tx      *app.Tx
	seq     uint64
}

// submit builds and broadcasts attempt a.
func (g *Generator) submit(a *attempt) {
	a.tx, a.seq = g.transferTx(a.account, a.sub)
	g.rpcNode.BroadcastTxSync(g.host, a.tx, a)
}

// OnBroadcast counts an admitted attempt, or re-queries the committed
// sequence and retries (the CLI's behaviour), or gives the submission up.
func (a *attempt) OnBroadcast(err error) {
	g := a.g
	// A refusal means the attempt never entered the mempool, so it can
	// never commit, and a retry is a new transaction with a new hash: its
	// broadcast time goes. A client timeout keeps it, since the node may
	// have admitted the attempt before the reply was lost, and it may
	// still commit.
	if err != nil && !errors.Is(err, rpc.ErrTimeout) {
		delete(g.broadcastAt, a.tx.Hash())
	}
	switch {
	case err == nil:
		g.nextSeq[a.account] = a.seq + 1
		g.count(a.sub, &g.stats.Submitted)
	case a.n < 2:
		g.rpcNode.QueryAccountSequence(g.host, a.account, a)
	default:
		g.count(a.sub, &g.stats.Failed)
	}
}

// OnSequence takes the committed sequence, if the query answered, and
// retries.
func (a *attempt) OnSequence(seq uint64, err error) {
	if err == nil {
		a.g.nextSeq[a.account] = seq
	}
	a.n++
	a.g.submit(a)
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
		g.subs = append(g.subs, submission{n: txSize(transfers, i)})
		account := g.accounts[i]
		tx, seq := g.transferTx(account, len(g.subs)-1)
		if err := g.source.Pool.Add(tx); err == nil {
			g.nextSeq[account] = seq + 1
			g.count(len(g.subs)-1, &g.stats.Submitted)
		} else {
			delete(g.broadcastAt, tx.Hash())
			g.count(len(g.subs)-1, &g.stats.Failed)
		}
	}
}
