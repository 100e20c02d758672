package ibc_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"ibcbench/internal/app"
	"ibcbench/internal/ibc"
	"ibcbench/internal/tendermint/types"
)

// The keeper's host objects live typed in the app state, beside their
// bytes (setObject, app.State.SetObject). These tests pin that a read
// sees what the state holds, inside a transaction, after a rollback and
// after commit, that it costs no allocation, and that nothing writes to
// a stored object or its bytes. The TestMemo* names date from the decode
// memo these objects replaced; the behaviour they pin is unchanged.

// probeMsg runs a test closure as a message, so a test can read through
// the keeper in the middle of a transaction or make the transaction fail.
type probeMsg struct{ fn func(ctx *app.Context) error }

func (probeMsg) Route() string   { return "probe" }
func (probeMsg) MsgType() string { return "MsgProbe" }
func (probeMsg) WireSize() int   { return 0 }

const (
	objClient = "client-x"
	objConn   = "conn-a"
	objChan   = "channel-0"
)

// newObjectChain returns a chain without proof verification and with no
// IBC state yet: openMsgs writes it.
func newObjectChain(t *testing.T) *testChain {
	t.Helper()
	c := newTestChainProofs(t, "chain-a", false)
	c.app.RegisterRoute("probe", func(ctx *app.Context, msg app.Msg) error {
		return msg.(probeMsg).fn(ctx)
	})
	return c
}

// openMsgs seeds an open transfer channel to "chain-x", with its client
// and connection, and raises the client to the given height.
func openMsgs(height int64) []app.Msg { return []app.Msg{seedMsg, updateMsg(height)} }

// seedMsg seeds openMsgs' channel end. The keeper has no state of
// chain-x, so its packets are not checked against one.
var seedMsg = probeMsg{func(ctx *app.Context) error {
	ibc.SeedOpenEnd(ctx.State,
		ibc.EndIDs{Port: "transfer", Channel: objChan, Connection: objConn, Client: objClient},
		ibc.EndIDs{Port: "transfer", Channel: "channel-9", Connection: "conn-x", Client: "client-a"},
		ibc.ClientState{ChainID: "chain-x"}, nil)
	return nil
}}

func updateMsg(height int64) *ibc.MsgUpdateClient {
	return &ibc.MsgUpdateClient{ClientID: objClient, Bundle: ibc.HeaderBundle{Header: types.Header{
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
	if conn, err := k.Connection(ctx, objConn); err == nil {
		v.conn = conn.State
	}
	if ch, err := k.Channel(ctx, "transfer", objChan); err == nil {
		v.channel = ch.State
	} else if !errors.Is(err, ibc.ErrChannelNotFound) {
		t.Fatalf("channel: %v", err)
	}
	if cs, err := k.Client(ctx, objClient); err == nil {
		v.clientHeight = cs.LatestHeight
	} else if !errors.Is(err, ibc.ErrClientNotFound) {
		t.Fatalf("client: %v", err)
	}
	_, err := k.Consensus(ctx, objClient, 7)
	v.consensusAt7 = err == nil
	return v
}

func TestMemoForgetsRolledBackWrites(t *testing.T) {
	c := newObjectChain(t)
	var committed view
	staged := view{conn: ibc.StateOpen, channel: ibc.StateOpen, clientHeight: 7, consensusAt7: true}
	if got := viewOf(t, c.keeper, ctxOf(c)); got != committed {
		t.Fatalf("before: %+v, want %+v", got, committed)
	}
	// The probe reads every staged object and then fails the transaction.
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
	// Once an update's transaction aborts, the reads see the
	// pre-transaction objects again.
	if errs := c.deliver("relayer", updateMsg(12), probeMsg{func(ctx *app.Context) error {
		if cs, err := c.keeper.Client(ctx, objClient); err != nil || cs.LatestHeight != 12 {
			t.Errorf("inside the aborted update: client %+v, %v; want height 12", cs, err)
		}
		return errors.New("boom")
	}}); errs == nil {
		t.Fatal("the failing probe did not fail the tx")
	}
	if got := viewOf(t, c.keeper, ctxOf(c)); got != staged {
		t.Fatalf("after the aborted update: %+v, want %+v", got, staged)
	}
	if _, err := c.keeper.Consensus(ctxOf(c), objClient, 12); !errors.Is(err, ibc.ErrConsensusNotFound) {
		t.Fatalf("after the aborted update: consensus state at 12: %v, want not found", err)
	}
}

// firstCallAllocs counts the allocations of one call of read.
// AllocsPerRun's warm-up call would hide a cost paid on an object's
// first read, so it is skipped.
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

// Every host object is stored typed, by SeedOpenEnd and by the update
// that writes it, so no read decodes: the first read after the seed, and
// the reads after each update (a relayed batch's proof checks), make no
// allocation.
func TestLightClientReadsAfterUpdateAllocateNothing(t *testing.T) {
	c := newObjectChain(t)
	c.mustDeliver("relayer", seedMsg)
	reads := func(h, consensusAt int64) {
		t.Helper()
		ctx := ctxOf(c)
		var cs ibc.ClientState
		var cons ibc.ConsensusState
		var conn ibc.ConnectionEnd
		var ch ibc.ChannelEnd
		var errs [4]error
		type read struct {
			name string
			read func()
		}
		consensus := read{"consensus", func() { cons, errs[3] = c.keeper.Consensus(ctx, objClient, consensusAt) }}
		all := []read{
			{"client", func() { cs, errs[0] = c.keeper.Client(ctx, objClient) }},
			{"connection", func() { conn, errs[1] = c.keeper.Connection(ctx, objConn) }},
			{"channel", func() { ch, errs[2] = c.keeper.Channel(ctx, "transfer", objChan) }},
		}
		if consensusAt == 0 {
			consensus.read() // not found: its error allocates
		} else {
			all = append(all, consensus)
		}
		for _, r := range all {
			if n := firstCallAllocs(r.read); n != 0 {
				t.Errorf("height %d: the first %s read made %.0f allocations, want 0", h, r.name, n)
			}
		}
		if errs[0] != nil || cs.LatestHeight != h || cs.ChainID != "chain-x" {
			t.Fatalf("height %d: client %+v, %v", h, cs, errs[0])
		}
		if errs[1] != nil || conn.ClientID != objClient || errs[2] != nil || ch.ConnectionID != objConn {
			t.Fatalf("height %d: connection %+v, %v; channel %+v, %v", h, conn, errs[1], ch, errs[2])
		}
		if consensusAt == 0 {
			if !errors.Is(errs[3], ibc.ErrConsensusNotFound) {
				t.Fatalf("height %d: consensus state before any update: %v, want not found", h, errs[3])
			}
		} else if want := time.Duration(consensusAt) * time.Second; errs[3] != nil || cons.Timestamp != want {
			t.Fatalf("height %d: consensus %+v, %v; want timestamp %v", h, cons, errs[3], want)
		}
	}
	reads(1, 0) // SeedOpenEnd stores the client at height 1
	for _, h := range []int64{7, 12, 13} {
		c.mustDeliver("relayer", updateMsg(h))
		reads(h, h)
	}
}

func TestMemoSeesClientUpdateInSameTx(t *testing.T) {
	c := newObjectChain(t)
	c.mustDeliver("relayer", openMsgs(7)...)
	height := func(ctx *app.Context) int64 {
		h, err := c.keeper.LatestClientHeight(ctx, "transfer", objChan)
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

// The store keeps the slice and the object it is handed, and its undo
// journal keeps the ones a write replaced, so the store, the journal and
// every reader can share them. That is sound only while nobody writes
// into them: a client update inside a transaction must replace the
// stored slice and object (never edit them), and a rollback must put the
// old ones back untouched.
func TestMemoSharesStoredBytesAcrossRollback(t *testing.T) {
	c := newObjectChain(t)
	c.mustDeliver("relayer", openMsgs(7)...)
	key := ibc.AppendClientStateKey(nil, objClient)
	height := func(ctx *app.Context) int64 {
		cs, err := c.keeper.Client(ctx, objClient)
		if err != nil {
			t.Fatal(err)
		}
		return cs.LatestHeight
	}
	if got := height(ctxOf(c)); got != 7 {
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
	if cs, ok := c.app.State().Object(key).(ibc.ClientState); !ok || cs.LatestHeight != 7 {
		t.Fatalf("rollback restored the object %#v, want the client at height 7", c.app.State().Object(key))
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
	// The stored bytes are the stored object's encoding.
	raw, _ := c.app.State().Get(key)
	cs, _ := c.keeper.Client(ctxOf(c), objClient)
	if want := mustJSON(t, cs); !bytes.Equal(raw, want) {
		t.Fatalf("stored %s beside a client that encodes as %s", raw, want)
	}
}

func TestMemoReturnsCopies(t *testing.T) {
	c := newObjectChain(t)
	c.mustDeliver("relayer", openMsgs(7)...)
	var want ibc.ChannelEnd
	// Every read copies the one stored object; a write through any of the
	// results must not reach the next.
	for i := 0; i < 3; i++ {
		ch, err := c.keeper.Channel(ctxOf(c), "transfer", objChan)
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
