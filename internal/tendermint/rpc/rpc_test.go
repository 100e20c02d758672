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
	server *Server
	stor   *store.Store
	pool   *mempool.Pool
	idx    *eventindex.Index
	client netem.Host
}

// timeout is the client timeout a chain gives its primary node.
const timeout = 10 * time.Second

func newFixture(clientTimeout time.Duration) *fixture {
	sched := sim.NewScheduler()
	net := netem.New(sched, sim.NewRNG(1), netem.Config{
		OneWayLatency:   100 * time.Millisecond,
		LoopbackLatency: time.Millisecond,
	})
	stor := store.New("chain-a")
	idx := eventindex.New("chain-a")
	pool := mempool.New(nil)
	srv := New(sched, net, "chain-a/val0", clientTimeout, stor, pool,
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
		idx.At)
	return &fixture{sched: sched, server: srv, stor: stor, pool: pool, idx: idx, client: "relayer-host"}
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
	f.server.BroadcastTxSync(f.client, tx{id: "t1"}, func(err error) {
		called = true
		got = err
	})
	if err := f.sched.Run(); err != nil {
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
	f.server.BroadcastTxSync(f.client, tx{id: "dup"}, func(err error) { got = err })
	if err := f.sched.Run(); err != nil {
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
	f.server.QueryTxData(f.client, heavy.Hash(), func(*store.TxInfo, error) { first = f.sched.Now() })
	f.server.QueryTxData(f.client, heavy.Hash(), func(*store.TxInfo, error) { second = f.sched.Now() })
	if err := f.sched.Run(); err != nil {
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
	f.server.QueryTx(f.client, pending.Hash(), func(_ *store.TxInfo, err error) { err1 = err })
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(err1, ErrNotFound) {
		t.Fatalf("pending query err = %v", err1)
	}
	commitBlock(f, 1, pending)
	var info *store.TxInfo
	f.server.QueryTx(f.client, pending.Hash(), func(i *store.TxInfo, err error) { info = i })
	if err := f.sched.Run(); err != nil {
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
	f.server.QueryTxData(f.client, heavy.Hash(), nil1)
	var got error
	f.server.QueryTx(f.client, heavy.Hash(), func(_ *store.TxInfo, err error) { got = err })
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(got, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", got)
	}
}

func nil1(*store.TxInfo, error) {}

func TestQueryBlockTxs(t *testing.T) {
	f := newFixture(timeout)
	commitBlock(f, 1, tx{id: "a", msgs: 1}, tx{id: "b", msgs: 2})
	var infos []*store.TxInfo
	f.server.QueryBlockTxs(f.client, 1, func(is []*store.TxInfo, err error) { infos = is })
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("infos = %d", len(infos))
	}
	var missErr error
	f.server.QueryBlockTxs(f.client, 9, func(_ []*store.TxInfo, err error) { missErr = err })
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(missErr, ErrNotFound) {
		t.Fatalf("missing block err = %v", missErr)
	}
}

func TestQueryBlockEventsMatchesBlockTxsCost(t *testing.T) {
	// The indexed query must serve the shared BlockEvents at exactly the
	// tx_search service cost: same reply time as QueryBlockTxs.
	f := newFixture(timeout)
	commitBlock(f, 1, tx{id: "a", msgs: 3}, tx{id: "b", msgs: 2})
	var atTxs time.Duration
	f.server.QueryBlockTxs(f.client, 1, func([]*store.TxInfo, error) { atTxs = f.sched.Now() })
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	f2 := newFixture(timeout)
	commitBlock(f2, 1, tx{id: "a", msgs: 3}, tx{id: "b", msgs: 2})
	var atEvents time.Duration
	var be *eventindex.BlockEvents
	f2.server.QueryBlockEvents(f2.client, 1, func(b *eventindex.BlockEvents, err error) {
		be, atEvents = b, f2.sched.Now()
	})
	if err := f2.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if atEvents != atTxs {
		t.Fatalf("QueryBlockEvents at %v, QueryBlockTxs at %v: costs diverged", atEvents, atTxs)
	}
	if be == nil || be.Height != 1 {
		t.Fatalf("block events = %+v", be)
	}
	if be != f2.idx.At(1) {
		t.Fatal("query did not serve the shared index instance")
	}
	var missErr error
	f2.server.QueryBlockEvents(f2.client, 9, func(_ *eventindex.BlockEvents, err error) { missErr = err })
	if err := f2.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(missErr, ErrNotFound) {
		t.Fatalf("missing block err = %v", missErr)
	}
}

func TestSubscriptionCarriesSharedIndex(t *testing.T) {
	f := newFixture(timeout)
	var frame *EventFrame
	f.server.Subscribe(f.client, func(fr *EventFrame) { frame = fr })
	// Registration rides the network; let it land before publishing.
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	cb := commitBlock(f, 1, tx{id: "a", bytes: 100})
	f.server.PublishBlock(cb)
	if err := f.sched.Run(); err != nil {
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
	f.server.QueryAccountSequence(f.client, "alice", func(s uint64, err error) { seq = s })
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if seq != 7 {
		t.Fatalf("seq = %d", seq)
	}
}

func TestQueryHeight(t *testing.T) {
	f := newFixture(timeout)
	commitBlock(f, 1)
	commitBlock(f, 2)
	var h int64
	f.server.QueryHeight(f.client, func(got int64, err error) { h = got })
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if h != 2 {
		t.Fatalf("height = %d", h)
	}
}

func TestSubscriptionDeliversEvents(t *testing.T) {
	f := newFixture(timeout)
	var frames []*EventFrame
	f.server.Subscribe(f.client, func(fr *EventFrame) { frames = append(frames, fr) })
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	cb := commitBlock(f, 1, tx{id: "a", bytes: 100})
	f.server.PublishBlock(cb)
	if err := f.sched.Run(); err != nil {
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
	f.server.Subscribe(f.client, func(fr *EventFrame) { frame = fr })
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	cb := commitBlock(f, 1, tx{id: "big", bytes: simconf.WebSocketMaxFrameBytes + 1})
	f.server.PublishBlock(cb)
	if err := f.sched.Run(); err != nil {
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
	f.server.QueryTx(f.client, probe.Hash(), func(*store.TxInfo, error) { baseline = f.sched.Now() })
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}

	f2 := newFixture(timeout)
	commitBlock(f2, 1, probe)
	for i := 0; i < 100; i++ {
		f2.server.BroadcastTxSync(f2.client, tx{id: fmt.Sprintf("flood-%d", i)}, nil)
	}
	var loaded time.Duration
	f2.server.QueryTx(f2.client, probe.Hash(), func(*store.TxInfo, error) { loaded = f2.sched.Now() })
	if err := f2.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if loaded < baseline+500*time.Millisecond {
		t.Fatalf("confirmation under load at %v vs %v baseline: no contention", loaded, baseline)
	}
}
