package rpc

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"
	"time"

	"ibcbench/internal/abci"
	"ibcbench/internal/eventindex"
	"ibcbench/internal/netem"
	"ibcbench/internal/sim"
	"ibcbench/internal/simconf"
	"ibcbench/internal/tendermint/mempool"
	"ibcbench/internal/tendermint/store"
	"ibcbench/internal/tendermint/types"
)

type tx struct {
	id    string
	msgs  int
	bytes int
}

func (t tx) Hash() types.Hash  { return sha256.Sum256([]byte(t.id)) }
func (t tx) Size() int         { return t.bytes }
func (t tx) GasWanted() uint64 { return 1 }

type fixture struct {
	sched  *sim.Scheduler
	net    *netem.Network
	server *Server
	stor   *store.Store
	pool   *mempool.Pool
	idx    *eventindex.Index
	client netem.Host

	feed    *Feed
	timeout time.Duration
}

// timeout is the client timeout a chain gives its primary node.
const timeout = 10 * time.Second

func newFixture(clientTimeout time.Duration) *fixture {
	sched := sim.NewScheduler()
	net := netem.New(sched, sim.NewRNG(1), netem.Config{
		OneWayLatency:   100 * time.Millisecond,
		LoopbackLatency: time.Millisecond,
	})
	f := &fixture{sched: sched, net: net, stor: store.New(), pool: mempool.New(nil), idx: eventindex.New(), feed: new(Feed), timeout: clientTimeout, client: "relayer-host"}
	f.server = f.newServer("chain-a/val0")
	return f
}

// newServer adds a full node on the fixture's chain.
func (f *fixture) newServer(host netem.Host) *Server {
	return New(f.sched, f.net, host, f.timeout, f.stor, f.pool,
		func(t types.Tx) time.Duration {
			// 10ms per message: easy arithmetic for tests.
			if tt, ok := t.(tx); ok {
				return time.Duration(tt.msgs) * 10 * time.Millisecond
			}
			return time.Millisecond
		},
		func(txs []types.Tx) int {
			n := 0
			for _, t := range txs {
				n += t.Size()
			}
			return n
		},
		func(account string) (uint64, error) {
			if account == "alice" {
				return 7, nil
			}
			return 0, errors.New("no such account")
		},
		func(t types.Tx) int {
			if tt, ok := t.(tx); ok {
				return tt.msgs
			}
			return 0
		},
		f.idx.At, f.feed)
}

func commitBlock(f *fixture, height int64, txs ...types.Tx) *store.CommittedBlock {
	results := make([]abci.TxResult, len(txs))
	cb := &store.CommittedBlock{
		Block:   &types.Block{Header: types.Header{Height: height, Time: time.Duration(height) * 5 * time.Second}, Data: txs},
		Commit:  &types.Commit{Height: height},
		Results: results,
	}
	if err := f.stor.Append(cb); err != nil {
		panic(err)
	}
	infos, err := f.stor.TxsAtHeight(height)
	if err != nil {
		panic(err)
	}
	f.idx.IndexTxs(height, cb.Block.Header.Time, infos)
	return cb
}

func TestBroadcastAddsToMempool(t *testing.T) {
	f := newFixture(timeout)
	var got error
	called := false
	f.server.BroadcastTxSync(f.client, tx{id: "t1"}, onBroadcast(func(err error) {
		called = true
		got = err
	}))
	if err := f.sched.RunUntil(f.sched.Now() + time.Hour); err != nil {
		t.Fatal(err)
	}
	if !called || got != nil {
		t.Fatalf("called=%v err=%v", called, got)
	}
	if f.pool.Size() != 1 {
		t.Fatalf("pool size = %d", f.pool.Size())
	}
}

func TestBroadcastReportsCheckTxError(t *testing.T) {
	f := newFixture(timeout)
	f.server.BroadcastTxSync(f.client, tx{id: "dup"}, nil)
	var got error
	f.server.BroadcastTxSync(f.client, tx{id: "dup"}, onBroadcast(func(err error) { got = err }))
	if err := f.sched.RunUntil(f.sched.Now() + time.Hour); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(got, mempool.ErrDuplicate) {
		t.Fatalf("err = %v, want duplicate", got)
	}
}

func TestSerialQueryProcessing(t *testing.T) {
	// Two heavy queries submitted together must be served back to back,
	// not concurrently: the second completes ~one service time later.
	f := newFixture(timeout)
	heavy := tx{id: "h", msgs: 100} // 1s service each
	commitBlock(f, 1, heavy)
	var first, second time.Duration
	f.server.QueryTxData(f.client, heavy.Hash(), onTx(func(*store.TxInfo, error) { first = f.sched.Now() }))
	f.server.QueryTxData(f.client, heavy.Hash(), onTx(func(*store.TxInfo, error) { second = f.sched.Now() }))
	if err := f.sched.RunUntil(f.sched.Now() + time.Hour); err != nil {
		t.Fatal(err)
	}
	gap := second - first
	if gap < 900*time.Millisecond || gap > 1100*time.Millisecond {
		t.Fatalf("gap between serial queries = %v, want ~1s", gap)
	}
}

func TestQueryTxConfirmation(t *testing.T) {
	f := newFixture(timeout)
	pending := tx{id: "pending"}
	var err1 error
	f.server.QueryTx(f.client, pending.Hash(), onTx(func(_ *store.TxInfo, err error) { err1 = err }))
	if err := f.sched.RunUntil(f.sched.Now() + time.Hour); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(err1, ErrNotFound) {
		t.Fatalf("pending query err = %v", err1)
	}
	commitBlock(f, 1, pending)
	var info *store.TxInfo
	f.server.QueryTx(f.client, pending.Hash(), onTx(func(i *store.TxInfo, err error) { info = i }))
	if err := f.sched.RunUntil(f.sched.Now() + time.Hour); err != nil {
		t.Fatal(err)
	}
	if info == nil || info.Height != 1 {
		t.Fatalf("info = %+v", info)
	}
}

func TestClientTimeoutUnderBacklog(t *testing.T) {
	f := newFixture(2 * time.Second)
	heavy := tx{id: "h", msgs: 1000} // 10s service
	commitBlock(f, 1, heavy)
	// The first request monopolizes the serial resource; the second
	// times out client-side ("failed tx: no confirmation").
	f.server.QueryTxData(f.client, heavy.Hash(), nil)
	var got error
	f.server.QueryTx(f.client, heavy.Hash(), onTx(func(_ *store.TxInfo, err error) { got = err }))
	if err := f.sched.RunUntil(f.sched.Now() + time.Hour); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(got, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", got)
	}
}

// TestAnsweredRequestLeavesNothingQueued: the reply cancels the client
// timeout, so no event fires after the callback.
func TestAnsweredRequestLeavesNothingQueued(t *testing.T) {
	f := newFixture(timeout)
	var at time.Duration
	var fired uint64
	f.server.QueryAccountSequence(f.client, "alice", onSequence(func(uint64, error) {
		at, fired = f.sched.Now(), f.sched.Processed()
	}))
	if err := f.sched.RunUntil(f.sched.Now() + time.Hour); err != nil {
		t.Fatal(err)
	}
	if at == 0 || at >= timeout {
		t.Fatalf("replied at %v, want before the %v timeout", at, timeout)
	}
	if n := f.sched.Processed(); n != fired {
		t.Fatalf("%d events fired after the reply (the client timeout stayed queued)", n-fired)
	}
}

// TestDroppedReplyTimesOut: a reply the network loses leaves the client
// timeout armed, and it calls back once, with ErrTimeout, at exactly
// the client timeout.
func TestDroppedReplyTimesOut(t *testing.T) {
	f := newFixture(timeout)
	f.net.SetLinkExtraDrop("chain-a/val0", f.client, 1)
	calls := 0
	var got error
	var at time.Duration
	f.server.QueryAccountSequence(f.client, "alice", onSequence(func(_ uint64, err error) {
		calls++
		got, at = err, f.sched.Now()
	}))
	if err := f.sched.RunUntil(f.sched.Now() + time.Hour); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || !errors.Is(got, ErrTimeout) || at != timeout {
		t.Fatalf("%d callbacks, last err %v at %v; want one ErrTimeout at %v", calls, got, at, timeout)
	}
	if busy := f.server.BusyTime(); busy != simconf.StatusQueryCost {
		t.Fatalf("server busy %v, want the query served (%v) and only its reply lost", busy, simconf.StatusQueryCost)
	}
}

// TestLateReplyCallsBackOnce: a reply that lands after the client
// timeout finds the call answered and calls back no second time.
func TestLateReplyCallsBackOnce(t *testing.T) {
	f := newFixture(150 * time.Millisecond) // under the 200 ms round trip
	calls := 0
	var got error
	f.server.QueryAccountSequence(f.client, "alice", onSequence(func(_ uint64, err error) {
		calls++
		got = err
	}))
	if err := f.sched.RunUntil(f.sched.Now() + time.Hour); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || !errors.Is(got, ErrTimeout) {
		t.Fatalf("%d callbacks, last err %v; want one ErrTimeout", calls, got)
	}
	// arrive, serve, timeout and the late reply.
	if n := f.sched.Processed(); n != 4 {
		t.Fatalf("%d events fired, want 4 (the reply was not delivered)", n)
	}
}

// TestQueryTxAllocatesTheCallAlone: after warm-up, a QueryTx round trip
// allocates nothing: its one record, the call, comes back off the
// server's free list, and no hop allocates.
func TestQueryTxAllocatesTheCallAlone(t *testing.T) {
	f := newFixture(timeout)
	committed := tx{id: "c"}
	commitBlock(f, 1, committed)
	hash := committed.Hash()
	var info *store.TxInfo
	cb := onTx(func(i *store.TxInfo, _ error) { info = i })
	roundTrip := func() {
		f.server.QueryTx(f.client, hash, cb)
		if err := f.sched.RunUntil(f.sched.Now() + time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip()
	if info == nil || info.Height != 1 {
		t.Fatalf("info = %+v", info)
	}
	if a := testing.AllocsPerRun(100, roundTrip); a > 0 {
		t.Fatalf("a QueryTx round trip allocates %.1f times, want 0", a)
	}
}

// TestLateReplyNeverReachesTheNextOwner: a call whose client timed out
// is not reused while its reply is still on the wire, so a request made
// from the timeout's callback gets its own answer (here its own
// timeout), never the first request's late reply.
func TestLateReplyNeverReachesTheNextOwner(t *testing.T) {
	f := newFixture(150 * time.Millisecond) // under the 200 ms round trip
	var first, second []error
	var secondAt time.Duration
	f.server.QueryAccountSequence(f.client, "alice", onSequence(func(_ uint64, err error) {
		first = append(first, err)
		f.server.QueryAccountSequence(f.client, "alice", onSequence(func(_ uint64, err error) {
			second = append(second, err)
			secondAt = f.sched.Now()
		}))
	}))
	if err := f.sched.RunUntil(f.sched.Now() + time.Hour); err != nil {
		t.Fatal(err)
	}
	if len(first) != 1 || !errors.Is(first[0], ErrTimeout) {
		t.Fatalf("first request answered %v, want one ErrTimeout", first)
	}
	if len(second) != 1 || !errors.Is(second[0], ErrTimeout) || secondAt != 300*time.Millisecond {
		t.Fatalf("second request answered %v at %v, want one ErrTimeout at 300ms", second, secondAt)
	}
	if n := len(f.server.free); n != 2 {
		t.Fatalf("%d calls on the free list after both finished, want 2", n)
	}
}

// TestPublishBlockAllocatesPerChainNotPerNode: the full nodes of one
// chain share its feed, so publishing a block to a subscriber on each
// of 8 nodes allocates what publishing it on 1 does, and every
// subscriber gets the same frame.
func TestPublishBlockAllocatesPerChainNotPerNode(t *testing.T) {
	publish := func(nodes int) (float64, map[*EventFrame]int) {
		f := newFixture(timeout)
		servers := []*Server{f.server}
		for i := 1; i < nodes; i++ {
			servers = append(servers, f.newServer(netem.Host(fmt.Sprintf("chain-a/fullnode%d", i))))
		}
		got := map[*EventFrame]int{}
		for i, srv := range servers {
			srv.Subscribe(netem.Host(fmt.Sprintf("relayer-%d", i)), onFrame(func(fr *EventFrame) { got[fr]++ }))
		}
		if err := f.sched.RunUntil(f.sched.Now() + time.Hour); err != nil {
			t.Fatal(err)
		}
		height := int64(0)
		block := func() {
			height++
			cb := commitBlock(f, height, tx{id: fmt.Sprint(height), bytes: 100})
			for _, srv := range servers {
				srv.PublishBlock(cb)
			}
			if err := f.sched.RunUntil(f.sched.Now() + time.Hour); err != nil {
				t.Fatal(err)
			}
		}
		block()
		clear(got)
		block()
		if len(got) != 1 {
			t.Fatalf("%d nodes delivered %d distinct frames of one block, want 1", nodes, len(got))
		}
		return testing.AllocsPerRun(100, block), got
	}
	one, _ := publish(1)
	eight, frames := publish(8)
	for _, n := range frames {
		if n != 8 {
			t.Fatalf("frame delivered %d times, want 8", n)
		}
	}
	if eight != one {
		t.Fatalf("a block on 8 full nodes allocates %.0f times, on 1 %.0f: want the same", eight, one)
	}
}

func TestQueryBlockEvents(t *testing.T) {
	// The indexed query serves the shared BlockEvents at exactly the
	// tx_search service cost: one network hop each way plus
	// blockQueryCost.
	f := newFixture(timeout)
	commitBlock(f, 1, tx{id: "a", msgs: 3}, tx{id: "b", msgs: 2})
	want := 2*100*time.Millisecond + f.server.blockQueryCost(1)
	if want <= 2*100*time.Millisecond+simconf.StatusQueryCost {
		t.Fatalf("blockQueryCost(1) = %v, want the per-tx pull cost on top of the floor", f.server.blockQueryCost(1))
	}
	var at time.Duration
	var be *eventindex.BlockEvents
	f.server.QueryBlockEvents(f.client, 1, onBlockEvents(func(b *eventindex.BlockEvents, err error) {
		be, at = b, f.sched.Now()
	}))
	if err := f.sched.RunUntil(f.sched.Now() + time.Hour); err != nil {
		t.Fatal(err)
	}
	if at != want {
		t.Fatalf("QueryBlockEvents replied at %v, want %v", at, want)
	}
	if be == nil || be.Height != 1 {
		t.Fatalf("block events = %+v", be)
	}
	if be != f.idx.At(1) {
		t.Fatal("query did not serve the shared index instance")
	}
	var missErr error
	f.server.QueryBlockEvents(f.client, 9, onBlockEvents(func(_ *eventindex.BlockEvents, err error) { missErr = err }))
	if err := f.sched.RunUntil(f.sched.Now() + time.Hour); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(missErr, ErrNotFound) {
		t.Fatalf("missing block err = %v", missErr)
	}
}

func TestSubscriptionCarriesSharedIndex(t *testing.T) {
	f := newFixture(timeout)
	var frame *EventFrame
	f.server.Subscribe(f.client, onFrame(func(fr *EventFrame) { frame = fr }))
	// Registration rides the network; let it land before publishing.
	if err := f.sched.RunUntil(f.sched.Now() + time.Hour); err != nil {
		t.Fatal(err)
	}
	cb := commitBlock(f, 1, tx{id: "a", bytes: 100})
	f.server.PublishBlock(cb)
	if err := f.sched.RunUntil(f.sched.Now() + time.Hour); err != nil {
		t.Fatal(err)
	}
	if frame == nil || frame.Events == nil {
		t.Fatalf("frame = %+v, want attached event index", frame)
	}
	if frame.Events != f.idx.At(1) {
		t.Fatal("frame carries a private index, not the shared one")
	}
}

func TestQueryAccountSequence(t *testing.T) {
	f := newFixture(timeout)
	var seq uint64
	f.server.QueryAccountSequence(f.client, "alice", onSequence(func(s uint64, err error) { seq = s }))
	if err := f.sched.RunUntil(f.sched.Now() + time.Hour); err != nil {
		t.Fatal(err)
	}
	if seq != 7 {
		t.Fatalf("seq = %d", seq)
	}
}

func TestSubscriptionDeliversEvents(t *testing.T) {
	f := newFixture(timeout)
	var frames []*EventFrame
	f.server.Subscribe(f.client, onFrame(func(fr *EventFrame) { frames = append(frames, fr) }))
	if err := f.sched.RunUntil(f.sched.Now() + time.Hour); err != nil {
		t.Fatal(err)
	}
	cb := commitBlock(f, 1, tx{id: "a", bytes: 100})
	f.server.PublishBlock(cb)
	if err := f.sched.RunUntil(f.sched.Now() + time.Hour); err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 {
		t.Fatalf("frames = %d", len(frames))
	}
	if frames[0].Err != nil || len(frames[0].Txs) != 1 || frames[0].Height != 1 {
		t.Fatalf("frame = %+v", frames[0])
	}
}

func TestWebSocketFrameLimit(t *testing.T) {
	f := newFixture(timeout)
	var frame *EventFrame
	f.server.Subscribe(f.client, onFrame(func(fr *EventFrame) { frame = fr }))
	if err := f.sched.RunUntil(f.sched.Now() + time.Hour); err != nil {
		t.Fatal(err)
	}
	cb := commitBlock(f, 1, tx{id: "big", bytes: simconf.WebSocketMaxFrameBytes + 1})
	f.server.PublishBlock(cb)
	if err := f.sched.RunUntil(f.sched.Now() + time.Hour); err != nil {
		t.Fatal(err)
	}
	if frame == nil {
		t.Fatal("no frame delivered")
	}
	if !errors.Is(frame.Err, ErrFrameTooLarge) {
		t.Fatalf("frame err = %v, want ErrFrameTooLarge", frame.Err)
	}
	if frame.Txs != nil {
		t.Fatal("oversized frame still delivered events")
	}
	if _, _, fe := f.server.Stats(); fe != 1 {
		t.Fatalf("frameErrors = %d", fe)
	}
}

func TestBroadcastContentionDelaysConfirmation(t *testing.T) {
	// Many broadcasts queued ahead of a confirmation query push its
	// completion out: the Table I mechanism where high submission rates
	// stress the shared RPC endpoint.
	f := newFixture(timeout)
	probe := tx{id: "probe"}
	commitBlock(f, 1, probe)
	var baseline time.Duration
	f.server.QueryTx(f.client, probe.Hash(), onTx(func(*store.TxInfo, error) { baseline = f.sched.Now() }))
	if err := f.sched.RunUntil(f.sched.Now() + time.Hour); err != nil {
		t.Fatal(err)
	}

	f2 := newFixture(timeout)
	commitBlock(f2, 1, probe)
	for i := 0; i < 100; i++ {
		f2.server.BroadcastTxSync(f2.client, tx{id: fmt.Sprintf("flood-%d", i)}, nil)
	}
	var loaded time.Duration
	f2.server.QueryTx(f2.client, probe.Hash(), onTx(func(*store.TxInfo, error) { loaded = f2.sched.Now() }))
	if err := f2.sched.RunUntil(f2.sched.Now() + time.Hour); err != nil {
		t.Fatal(err)
	}
	if loaded < baseline+500*time.Millisecond {
		t.Fatalf("confirmation under load at %v vs %v baseline: no contention", loaded, baseline)
	}
}

// Function adapters: each test's reply handler is a func literal.
type (
	onBroadcast   func(error)
	onTx          func(*store.TxInfo, error)
	onBlockEvents func(*eventindex.BlockEvents, error)
	onSequence    func(uint64, error)
	onFrame       func(*EventFrame)
)

func (f onBroadcast) OnBroadcast(err error)                                { f(err) }
func (f onTx) OnTx(i *store.TxInfo, err error)                             { f(i, err) }
func (f onBlockEvents) OnBlockEvents(b *eventindex.BlockEvents, err error) { f(b, err) }
func (f onSequence) OnSequence(s uint64, err error)                        { f(s, err) }
func (f onFrame) OnFrame(fr *EventFrame)                                   { f(fr) }
