package workload

import (
	"reflect"
	"testing"
	"time"

	"ibcbench/internal/app"
	"ibcbench/internal/chain"
	"ibcbench/internal/ibc/transfer"
	"ibcbench/internal/metrics"
	"ibcbench/internal/netem"
	"ibcbench/internal/sim"
)

// testbed is two linked default chains on one scheduler and WAN network.
type testbed struct {
	Sched *sim.Scheduler
	RNG   *sim.RNG
	Pair  *chain.Pair
}

func newTestbed(seed int64) *testbed {
	sched, rng := sim.NewScheduler(), sim.NewRNG(seed)
	net := netem.New(sched, rng, netem.DefaultWAN())
	mk := func(id string) *chain.Chain {
		return chain.New(sched, net, chain.Config{ChainID: id})
	}
	return &testbed{Sched: sched, RNG: rng, Pair: chain.Link(mk("ibc-0"), mk("ibc-1"))}
}

func (tb *testbed) Start() {
	tb.Pair.A.Start()
	tb.Pair.B.Start()
}

func (tb *testbed) Run(until time.Duration) error { return tb.Sched.RunUntil(until) }

func testEnv(seed int64) (*testbed, *Generator, *metrics.Tracker) {
	tb := newTestbed(seed)
	tracker := metrics.NewTracker()
	node := tb.Pair.A.AddRPCNode(10 * time.Second)
	g := NewOnChannel(tb.Sched, tb.RNG, tb.Pair.A, tb.Pair.B, tb.Pair.ChannelAB, node, tracker)
	tb.Start()
	return tb, g, tracker
}

func TestSubmitBatchCommits(t *testing.T) {
	tb, g, tracker := testEnv(1)
	tb.Sched.At(time.Second, func() { g.SubmitBatch(250) })
	if err := tb.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.Requested != 250 || st.Submitted != 250 || st.Failed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// 250 transfers = 3 txs (100+100+50) from 3 distinct accounts.
	ok, _ := tb.Pair.A.App.TxStats()
	if ok != 3 {
		t.Fatalf("committed txs = %d, want 3", ok)
	}
	// Broadcast + confirmation recorded for every packet.
	if n := trackedPackets(tracker); n != 250 {
		t.Fatalf("tracked = %d", n)
	}
	counts := tracker.CompletionCounts()
	if counts[metrics.StatusInitiated] != 250 {
		t.Fatalf("counts = %v (no relayer, should all be initiated)", counts)
	}
}

// TestRefusedAttemptLeavesNoEntry: an attempt the node refuses can
// never commit, so it keeps no broadcast time, while its retry, a new
// transaction, commits and takes its own. The first attempt here is
// stamped with a sequence the account has not reached, and CheckTx
// refuses it.
func TestRefusedAttemptLeavesNoEntry(t *testing.T) {
	tb, g, tracker := testEnv(5)
	g.EnsureAccounts(3)
	g.nextSeq[g.accounts[0]] = 7
	tb.Sched.At(time.Second, func() { g.SubmitBatch(100) })
	if err := tb.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st := g.Stats(); st.Submitted != 100 || st.Failed != 0 {
		t.Fatalf("stats = %+v, want the retry submitted", st)
	}
	if rejected := tb.Pair.A.Pool.Rejected(); rejected != 1 {
		t.Fatalf("the mempool refused %d attempts, want 1", rejected)
	}
	if n := trackedPackets(tracker); n != 100 {
		t.Fatalf("tracked = %d, want the retry's 100 packets", n)
	}
	if n := len(g.broadcastAt); n != 0 {
		t.Fatalf("%d broadcast entries left after every attempt committed or was refused", n)
	}
}

func TestAccountsRotateAcrossWindows(t *testing.T) {
	tb, g, _ := testEnv(2)
	g.RunConstantRate(40, 3) // 200 transfers = 2 txs per window, 3 windows
	if err := tb.Run(40 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.Requested != 600 || st.Failed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Submitted != 600 {
		t.Fatalf("submitted = %d; account reuse stalled submission", st.Submitted)
	}
}

func TestInjectDirectSingleBlock(t *testing.T) {
	tb, g, _ := testEnv(3)
	tb.Sched.At(time.Millisecond, func() { g.InjectDirect(1000) })
	if err := tb.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	// All 10 txs land in one block.
	found := false
	for h := int64(1); h <= tb.Pair.A.Store.Height(); h++ {
		cb, _ := tb.Pair.A.Store.Block(h)
		if len(cb.Block.Data) == 10 {
			found = true
		} else if len(cb.Block.Data) != 0 {
			t.Fatalf("txs split across blocks: %d at height %d", len(cb.Block.Data), h)
		}
	}
	if !found {
		t.Fatal("no single block carried all injected txs")
	}
}

// TestPacketKeysFollowEventOrderAcrossChannels: the event index groups a
// transaction's sends by channel, and PacketKeys must still list them in
// the order the transaction emitted them.
func TestPacketKeysFollowEventOrderAcrossChannels(t *testing.T) {
	tb, g, tracker := testEnv(4)
	second := chain.Link(tb.Pair.A, tb.Pair.B).ChannelAB
	g.EnsureAccounts(1)
	account := g.accounts[0]
	channels := []string{g.SourceChannel, second, second, g.SourceChannel, second}
	msgs := make([]app.Msg, len(channels))
	for i, ch := range channels {
		msgs[i] = &transfer.MsgTransfer{
			Sender: account, Receiver: "receiver", Token: app.Coin{Denom: "uatom", Amount: 1},
			SourcePort: transfer.PortID, SourceChannel: ch, TimeoutHeight: 1000, Nonce: uint64(i),
		}
	}
	tx := app.NewTx(account, 0, 1, msgs)
	g.subs = append(g.subs, submission{n: len(msgs)})
	g.broadcastAt[tx.Hash()] = broadcast{sub: len(g.subs) - 1}
	if err := tb.Pair.A.Pool.Add(tx); err != nil {
		t.Fatal(err)
	}
	if err := tb.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Each channel numbers its own packets from 1.
	want := []metrics.PacketKey{
		{SrcChain: "ibc-0", Channel: g.SourceChannel, Sequence: 1},
		{SrcChain: "ibc-0", Channel: second, Sequence: 1},
		{SrcChain: "ibc-0", Channel: second, Sequence: 2},
		{SrcChain: "ibc-0", Channel: g.SourceChannel, Sequence: 2},
		{SrcChain: "ibc-0", Channel: second, Sequence: 3},
	}
	if got := g.PacketKeys(); !reflect.DeepEqual(got, want) {
		t.Fatalf("PacketKeys = %v, want %v", got, want)
	}
	if n := trackedPackets(tracker); n != len(want) {
		t.Fatalf("tracked = %d, want %d", n, len(want))
	}
}

// trackedPackets counts the packets with any recorded step.
func trackedPackets(tr *metrics.Tracker) int {
	n := 0
	tr.Walk(func(metrics.PacketKey, *metrics.Lifecycle) { n++ })
	return n
}
