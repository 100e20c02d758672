package ibc_test

import (
	"errors"
	"testing"
	"time"

	"ibcbench/internal/app"
	"ibcbench/internal/ibc"
	"ibcbench/internal/tendermint/types"
)

// The keeper remembers decoded stored objects (getJSON). These tests pin
// that the memo is invisible: reads always reflect the bytes the state
// would return, inside a transaction, after a rollback and after commit.

// probeMsg runs a test closure as a message, so a test can read through
// the keeper in the middle of a transaction or make the transaction fail.
type probeMsg struct{ fn func(ctx *app.Context) error }

func (probeMsg) Route() string   { return "probe" }
func (probeMsg) MsgType() string { return "MsgProbe" }
func (probeMsg) WireSize() int   { return 0 }

const (
	memoClient = "client-x"
	memoConn   = "conn-a"
	memoChan   = "channel-0"
)

// newMemoChain returns a chain without proof verification and with no
// IBC state yet: openMsgs writes it.
func newMemoChain(t *testing.T) *testChain {
	t.Helper()
	c := newTestChainProofs(t, "chain-a", false)
	c.app.RegisterRoute("probe", func(ctx *app.Context, msg app.Msg) error {
		return msg.(probeMsg).fn(ctx)
	})
	return c
}

// openMsgs seeds an open transfer channel to "chain-x", with its client
// and connection, and raises the client to the given height.
func openMsgs(height int64) []app.Msg {
	seed := probeMsg{func(ctx *app.Context) error {
		ibc.SeedOpenEnd(ctx.State,
			ibc.EndIDs{Port: "transfer", Channel: memoChan, Connection: memoConn, Client: memoClient},
			ibc.EndIDs{Port: "transfer", Channel: "channel-9", Connection: "conn-x", Client: "client-a"},
			ibc.ClientState{ChainID: "chain-x"})
		return nil
	}}
	return []app.Msg{seed, updateMsg(height)}
}

func updateMsg(height int64) ibc.MsgUpdateClient {
	return ibc.MsgUpdateClient{ClientID: memoClient, Bundle: ibc.HeaderBundle{Header: types.Header{
		ChainID: "chain-x", Height: height, Time: time.Duration(height) * time.Second,
	}}}
}

// view is what the keeper reports for the objects openMsgs writes.
type view struct {
	conn, channel ibc.HandshakeState // 0 = not found
	clientHeight  int64              // 0 = not found
	consensusAt7  bool
}

func viewOf(t *testing.T, k *ibc.Keeper, ctx *app.Context) view {
	t.Helper()
	var v view
	if conn, err := k.Connection(ctx, memoConn); err == nil {
		v.conn = conn.State
	}
	if ch, err := k.Channel(ctx, "transfer", memoChan); err == nil {
		v.channel = ch.State
	} else if !errors.Is(err, ibc.ErrChannelNotFound) {
		t.Fatalf("channel: %v", err)
	}
	if cs, err := k.Client(ctx, memoClient); err == nil {
		v.clientHeight = cs.LatestHeight
	} else if !errors.Is(err, ibc.ErrClientNotFound) {
		t.Fatalf("client: %v", err)
	}
	_, err := k.Consensus(ctx, memoClient, 7)
	v.consensusAt7 = err == nil
	return v
}

func TestMemoForgetsRolledBackWrites(t *testing.T) {
	c := newMemoChain(t)
	var committed view
	staged := view{conn: ibc.StateOpen, channel: ibc.StateOpen, clientHeight: 7, consensusAt7: true}
	if got := viewOf(t, c.keeper, ctxOf(c)); got != committed {
		t.Fatalf("before: %+v, want %+v", got, committed)
	}
	// The probe reads every staged object (so the memo holds the staged
	// decodes) and then fails the transaction.
	fail := probeMsg{func(ctx *app.Context) error {
		if got := viewOf(t, c.keeper, ctx); got != staged {
			t.Errorf("inside the tx: %+v, want %+v", got, staged)
		}
		return errors.New("boom")
	}}
	if errs := c.deliver("relayer", append(openMsgs(7), fail)...); errs == nil {
		t.Fatal("the failing probe did not fail the tx")
	}
	if got := viewOf(t, c.keeper, ctxOf(c)); got != committed {
		t.Fatalf("after the rollback: %+v, want %+v", got, committed)
	}
	c.mustDeliver("relayer", openMsgs(7)...)
	if got := viewOf(t, c.keeper, ctxOf(c)); got != staged {
		t.Fatalf("after the commit: %+v, want %+v", got, staged)
	}
	// An update remembers what it writes; once its transaction aborts,
	// the reads see the pre-transaction states again.
	if errs := c.deliver("relayer", updateMsg(12), probeMsg{func(ctx *app.Context) error {
		if cs, err := c.keeper.Client(ctx, memoClient); err != nil || cs.LatestHeight != 12 {
			t.Errorf("inside the aborted update: client %+v, %v; want height 12", cs, err)
		}
		return errors.New("boom")
	}}); errs == nil {
		t.Fatal("the failing probe did not fail the tx")
	}
	if got := viewOf(t, c.keeper, ctxOf(c)); got != staged {
		t.Fatalf("after the aborted update: %+v, want %+v", got, staged)
	}
	if _, err := c.keeper.Consensus(ctxOf(c), memoClient, 12); !errors.Is(err, ibc.ErrConsensusNotFound) {
		t.Fatalf("after the aborted update: consensus state at 12: %v, want not found", err)
	}
}

// firstCallAllocs counts the allocations of one call of read.
// AllocsPerRun's warm-up call would fill the memo by itself, so it is
// skipped.
func firstCallAllocs(read func()) float64 {
	warm := true
	return testing.AllocsPerRun(1, func() {
		if warm {
			warm = false
			return
		}
		read()
	})
}

// A light-client state is remembered when updateClient writes it, so the
// reads that follow (a relayed batch's proof checks) decode nothing.
func TestLightClientReadsAfterUpdateAllocateNothing(t *testing.T) {
	c := newMemoChain(t)
	c.mustDeliver("relayer", openMsgs(7)...)
	for _, h := range []int64{12, 13} {
		c.mustDeliver("relayer", updateMsg(h))
		ctx := ctxOf(c)
		var cs ibc.ClientState
		var cons ibc.ConsensusState
		var err error
		if n := firstCallAllocs(func() { cs, err = c.keeper.Client(ctx, memoClient) }); n != 0 {
			t.Errorf("height %d: the client read after its update made %.0f allocations, want 0", h, n)
		}
		if err != nil || cs.LatestHeight != h || cs.ChainID != "chain-x" {
			t.Fatalf("height %d: client %+v, %v", h, cs, err)
		}
		if n := firstCallAllocs(func() { cons, err = c.keeper.Consensus(ctx, memoClient, h) }); n != 0 {
			t.Errorf("height %d: the consensus read after its update made %.0f allocations, want 0", h, n)
		}
		if want := time.Duration(h) * time.Second; err != nil || cons.Timestamp != want {
			t.Fatalf("height %d: consensus %+v, %v; want timestamp %v", h, cons, err, want)
		}
	}
}

func TestMemoSeesClientUpdateInSameTx(t *testing.T) {
	c := newMemoChain(t)
	c.mustDeliver("relayer", openMsgs(7)...)
	height := func(ctx *app.Context) int64 {
		h, err := c.keeper.LatestClientHeight(ctx, "transfer", memoChan)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	if got := height(ctxOf(c)); got != 7 {
		t.Fatalf("before: height %d, want 7", got)
	}
	c.mustDeliver("relayer", updateMsg(12), probeMsg{func(ctx *app.Context) error {
		if got := height(ctx); got != 12 {
			t.Errorf("inside the tx: height %d, want 12", got)
		}
		return nil
	}})
	if got := height(ctxOf(c)); got != 12 {
		t.Fatalf("after the commit: height %d, want 12", got)
	}
	// A lower header stores its consensus state and leaves the height.
	c.mustDeliver("relayer", updateMsg(9))
	if got := height(ctxOf(c)); got != 12 {
		t.Fatalf("after a lower header: height %d, want 12", got)
	}
}

// The store keeps the slice it is handed and the memo keeps the slice it
// read, so the memo, the store and the undo journal can all point at the
// same bytes. That is sound only while nobody writes into them: a client
// update inside a transaction must replace the stored slice (never edit
// it), and a rollback must put the old one back untouched.
func TestMemoSharesStoredBytesAcrossRollback(t *testing.T) {
	c := newMemoChain(t)
	c.mustDeliver("relayer", openMsgs(7)...)
	key := ibc.AppendClientStateKey(nil, memoClient)
	height := func(ctx *app.Context) int64 {
		cs, err := c.keeper.Client(ctx, memoClient)
		if err != nil {
			t.Fatal(err)
		}
		return cs.LatestHeight
	}
	if got := height(ctxOf(c)); got != 7 { // the memo now holds the stored slice
		t.Fatalf("before: height %d, want 7", got)
	}
	before, _ := c.app.State().Get(key)
	snapshot := append([]byte(nil), before...)

	fail := probeMsg{func(ctx *app.Context) error {
		if got := height(ctx); got != 12 {
			t.Errorf("inside the tx: height %d, want 12", got)
		}
		if raw, _ := ctx.State.Get(key); &raw[0] == &before[0] {
			t.Error("the update wrote into the stored slice instead of replacing it")
		}
		return errors.New("boom")
	}}
	if errs := c.deliver("relayer", updateMsg(12), fail); errs == nil {
		t.Fatal("the failing probe did not fail the tx")
	}
	after, _ := c.app.State().Get(key)
	if &after[0] != &before[0] || string(after) != string(snapshot) {
		t.Fatalf("rollback restored %q, want the untouched pre-tx slice %q", after, snapshot)
	}
	if got := height(ctxOf(c)); got != 7 {
		t.Fatalf("after the rollback: height %d, want 7", got)
	}
	c.mustDeliver("relayer", updateMsg(12))
	if got := height(ctxOf(c)); got != 12 {
		t.Fatalf("after the commit: height %d, want 12", got)
	}
	if string(before) != string(snapshot) {
		t.Fatalf("the replaced slice was written to: %q, want %q", before, snapshot)
	}
}

func TestMemoReturnsCopies(t *testing.T) {
	c := newMemoChain(t)
	c.mustDeliver("relayer", openMsgs(7)...)
	var want ibc.ChannelEnd
	// The first read decodes, the later ones come from the memo; a write
	// through any of the results must not reach the next.
	for i := 0; i < 3; i++ {
		ch, err := c.keeper.Channel(ctxOf(c), "transfer", memoChan)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = ch
		} else if ch != want {
			t.Fatalf("read %d saw the previous caller's write: %+v, want %+v", i, ch, want)
		}
		ch.State = 0
		ch.CounterpartyChan = "channel-666"
	}
}

func TestMemoStaysUnderItsBound(t *testing.T) {
	c := newMemoChain(t)
	c.mustDeliver("relayer", openMsgs(1)...)
	const first, heights = 100, ibc.MemoCap + 50
	for h := int64(first); h < first+heights; h += 50 {
		msgs := make([]app.Msg, 50)
		for i := range msgs {
			msgs[i] = updateMsg(h + int64(i))
		}
		c.mustDeliver("relayer", msgs...)
		if n := c.keeper.MemoLen(); n > ibc.MemoCap {
			t.Fatalf("memo holds %d entries after writing up to height %d, bound %d", n, h+49, ibc.MemoCap)
		}
	}
	ctx := ctxOf(c)
	check := func(h int64) {
		cons, err := c.keeper.Consensus(ctx, memoClient, h)
		if err != nil {
			t.Fatal(err)
		}
		if want := time.Duration(h) * time.Second; cons.Timestamp != want {
			t.Fatalf("height %d: timestamp %v, want %v", h, cons.Timestamp, want)
		}
		if n := c.keeper.MemoLen(); n > ibc.MemoCap {
			t.Fatalf("memo holds %d entries after height %d, bound %d", n, h, ibc.MemoCap)
		}
	}
	for h := int64(first); h < first+heights; h++ {
		check(h)
	}
	// Entries dropped when the memo filled up decode again.
	check(first)
}
