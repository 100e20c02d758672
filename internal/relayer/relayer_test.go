package relayer

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"ibcbench/internal/app"
	"ibcbench/internal/chain"
	"ibcbench/internal/eventindex"
	"ibcbench/internal/ibc"
	"ibcbench/internal/metrics"
	"ibcbench/internal/netem"
	"ibcbench/internal/sim"
	"ibcbench/internal/simconf"
	"ibcbench/internal/workload"
)

// testbed is two linked default chains on one scheduler and WAN network.
type testbed struct {
	Sched *sim.Scheduler
	RNG   *sim.RNG
	Pair  *chain.Pair
}

func newTestbed(seed int64, fullProofs bool) *testbed {
	sched, rng := sim.NewScheduler(), sim.NewRNG(seed)
	net := netem.New(sched, rng, netem.DefaultWAN())
	mk := func(id string) *chain.Chain {
		return chain.New(sched, net, chain.Config{ChainID: id, FullProofs: fullProofs})
	}
	return &testbed{Sched: sched, RNG: rng, Pair: chain.Link(mk("ibc-0"), mk("ibc-1"))}
}

func (tb *testbed) Start() {
	tb.Pair.A.Start()
	tb.Pair.B.Start()
}

func (tb *testbed) Run(until time.Duration) error { return tb.Sched.RunUntil(until) }

// env assembles testbed + relayer(s) + workload generator.
type env struct {
	tb       *testbed
	relayers []*Relayer
	tracker  *metrics.Tracker
	gen      *workload.Generator
}

func newEnv(t *testing.T, seed int64, relayers int, fullProofs bool) *env {
	t.Helper()
	tb := newTestbed(seed, fullProofs)
	tracker := metrics.NewTracker()
	e := &env{tb: tb, tracker: tracker}
	for i := 0; i < relayers; i++ {
		rcfg := Config{Name: "hermes-" + string(rune('a'+i)), Tracker: tracker}
		r := New(tb.Sched, tb.RNG, rcfg, tb.Pair)
		r.Start()
		e.relayers = append(e.relayers, r)
	}
	e.gen = workload.NewOnChannel(tb.Sched, tb.RNG, tb.Pair.A, tb.Pair.B, tb.Pair.ChannelAB, e.relayers[0].EndpointRPC(tb.Pair.A.ID), tracker)
	tb.Start()
	return e
}

func TestSingleTransferCompletes(t *testing.T) {
	e := newEnv(t, 1, 1, false)
	e.tb.Sched.At(time.Second, func() { e.gen.SubmitBatch(1) })
	if err := e.tb.Run(120 * time.Second); err != nil {
		t.Fatal(err)
	}
	counts := e.tracker.CompletionCounts()
	if counts[metrics.StatusCompleted] != 1 {
		t.Fatalf("completion counts = %v", counts)
	}
	// The paper reports ~21s for one transfer (3 txs across both chains).
	lat := e.tracker.CompletionTimes()
	if len(lat) != 1 || lat[0] < 10*time.Second || lat[0] > 40*time.Second {
		t.Fatalf("latency = %v, want ~21s", lat)
	}
	// Funds moved: 1 voucher minted on B.
	voucher := "transfer/channel-0/uatom"
	if got := e.tb.Pair.B.App.Bank().Supply(voucher); got != 1 {
		t.Fatalf("voucher supply = %d", got)
	}
}

func TestBatchTransfersComplete(t *testing.T) {
	e := newEnv(t, 2, 1, false)
	e.tb.Sched.At(time.Second, func() { e.gen.SubmitBatch(500) })
	if err := e.tb.Run(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	counts := e.tracker.CompletionCounts()
	if counts[metrics.StatusCompleted] != 500 {
		t.Fatalf("completion counts = %v (relayer stats %+v)", counts, e.relayers[0].Stats())
	}
	st := e.relayers[0].Stats()
	if st.RecvDelivered != 500 || st.AcksDelivered != 500 {
		t.Fatalf("relayer stats = %+v", st)
	}
}

func TestFullProofModeCompletes(t *testing.T) {
	e := newEnv(t, 3, 1, true)
	e.tb.Sched.At(time.Second, func() { e.gen.SubmitBatch(120) })
	if err := e.tb.Run(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	counts := e.tracker.CompletionCounts()
	if counts[metrics.StatusCompleted] != 120 {
		t.Fatalf("full-proof completion = %v (stats %+v)", counts, e.relayers[0].Stats())
	}
}

// Under full proofs a proof State cannot serve is a simulator fault:
// proveMember and proveAbsent panic naming the chain, height and key instead of handing
// the relayer a nil proof, which would only fail its tx. An absent key
// is not a fault.
func TestProveOnPanicsOnStateError(t *testing.T) {
	e := newEnv(t, 3, 1, true)
	if err := e.tb.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	r := e.relayers[0]
	h := r.a.chain.App.State().Version()
	if h == 0 {
		t.Fatal("no committed height after 30 s")
	}
	absent := app.Records{Kind: app.Receipt, Channel: "channel-9", Prefix: []byte("absent/")}
	if p := proveMember(r.a, h+1, absent, 7); p != nil {
		t.Fatalf("membership proof of an absent record = %+v, want nil", p)
	}
	defer func() {
		msg, _ := recover().(string)
		for _, want := range []string{r.a.chain.ID, fmt.Sprintf("height %d", h+5), `"absent/7"`} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic %q does not name %s", msg, want)
			}
		}
	}()
	proveAbsent(r.a, h+6, absent, 7)
}

func TestTwoRelayersRedundancy(t *testing.T) {
	e := newEnv(t, 4, 2, false)
	e.tb.Sched.At(time.Second, func() { e.gen.SubmitBatch(300) })
	if err := e.tb.Run(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	counts := e.tracker.CompletionCounts()
	if counts[metrics.StatusCompleted] != 300 {
		t.Fatalf("completion = %v", counts)
	}
	// Both relayers raced: at least one saw redundant-packet failures.
	total := e.relayers[0].Stats().RedundantErrors + e.relayers[1].Stats().RedundantErrors
	if total == 0 {
		t.Fatalf("no redundant-packet errors with two relayers (a=%+v b=%+v)",
			e.relayers[0].Stats(), e.relayers[1].Stats())
	}
}

func TestRelayerCrashLeavesPartials(t *testing.T) {
	e := newEnv(t, 5, 1, false)
	e.tb.Sched.At(time.Second, func() { e.gen.SubmitBatch(500) })
	// Crash the relayer mid-flight, before acks complete.
	e.tb.Sched.At(14*time.Second, func() { e.relayers[0].Stop() })
	if err := e.tb.Run(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	counts := e.tracker.CompletionCounts()
	if counts[metrics.StatusCompleted] == 500 {
		t.Fatal("all transfers completed despite relayer crash")
	}
	if counts[metrics.StatusInitiated]+counts[metrics.StatusPartial] == 0 {
		t.Fatalf("no stranded transfers: %v", counts)
	}
}

func TestStepOrderingInvariant(t *testing.T) {
	e := newEnv(t, 6, 1, false)
	e.tb.Sched.At(time.Second, func() { e.gen.SubmitBatch(150) })
	if err := e.tb.Run(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	// For every completed packet the step times must be monotone in the
	// protocol order.
	order := []metrics.Step{
		metrics.StepTransferBroadcast, metrics.StepTransferExtraction,
		metrics.StepTransferDataPull, metrics.StepRecvBuild,
		metrics.StepRecvBroadcast, metrics.StepRecvConfirmation,
		metrics.StepRecvDataPull, metrics.StepAckBuild,
		metrics.StepAckBroadcast, metrics.StepAckConfirmation,
	}
	for seq := uint64(1); seq <= 150; seq++ {
		key := metrics.PacketKey{SrcChain: "ibc-0", Channel: "channel-0", Sequence: seq}
		var prev time.Duration
		for _, st := range order {
			at, ok := e.tracker.StepTime(key, st)
			if !ok {
				t.Fatalf("packet %d missing step %v", seq, st)
			}
			if at < prev {
				t.Fatalf("packet %d: step %v at %v before previous %v", seq, st, at, prev)
			}
			prev = at
		}
	}
}

// TestBatchBufferRecycling pins the batch-build slice reuse: after an
// initial warmup the per-relayer packet and ack free lists stop growing
// — every submitted batch returns its backing slice, so a long run
// allocates a bounded number of buffers regardless of blocks scanned.
func TestBatchBufferRecycling(t *testing.T) {
	e := newEnv(t, 11, 1, false)
	r := e.relayers[0]
	e.tb.Sched.At(time.Second, func() { e.gen.SubmitBatch(50) })
	if err := e.tb.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	warmPkt, warmAck := len(r.pktBuf), len(r.ackBuf)
	if warmPkt == 0 || warmAck == 0 {
		t.Fatalf("free lists empty after warmup (pkt=%d ack=%d) — buffers not returned", warmPkt, warmAck)
	}
	e.tb.Sched.At(e.tb.Sched.Now()+time.Second, func() { e.gen.SubmitBatch(50) })
	if err := e.tb.Run(e.tb.Sched.Now() + 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := e.tracker.CompletionCounts()[metrics.StatusCompleted]; got != 100 {
		t.Fatalf("completed = %d, want 100", got)
	}
	if len(r.pktBuf) != warmPkt || len(r.ackBuf) != warmAck {
		t.Fatalf("free lists grew after warmup: pkt %d->%d ack %d->%d",
			warmPkt, len(r.pktBuf), warmAck, len(r.ackBuf))
	}
}

// checkTimeouts refunds only a packet that was not received: of five
// expired packets, the one whose write_acknowledgement the relayer parsed
// in a destination block and the one whose failed recv a probe found
// settled are known received, the one with its recv in flight is left
// alone, the one whose receipt the relayer never saw is found by the
// timeout's own receipt probe, and only sequence 3 is timed out.
func TestTimeoutsSkipReceivedPackets(t *testing.T) {
	tb := newTestbed(1, false)
	r := New(tb.Sched, tb.RNG, Config{Name: "hermes-t"}, tb.Pair)
	packet := func(seq uint64) *ibc.Packet {
		return &ibc.Packet{Sequence: seq, SourcePort: "transfer", SourceChannel: r.a.channel, DestPort: "transfer", DestChannel: r.b.channel, TimeoutHeight: 2}
	}
	for seq := uint64(1); seq <= 5; seq++ {
		r.a.packets.row(seq).sighted(packet(seq), false)
	}
	ack := &eventindex.TxEvents{AckWrites: []*ibc.AckWrite{{Packet: *packet(1)}}}
	r.processBlock(r.b, r.a, &eventindex.BlockEvents{Height: 2, MsgCount: 1, Txs: []*eventindex.TxEvents{ack}})
	r.Stop() // the block is parsed, its ack pull abandoned
	st := tb.Pair.B.App.State()
	receipts := ibc.PacketRecords(nil, app.Receipt, "transfer", r.b.channel)
	for _, seq := range []uint64{4, 5} {
		st.SetRecord(&receipts, seq, []byte{1})
	}
	st.CommitTx()
	r.a.packets.row(2).submitted()
	r.a.packets.row(4).submitted()
	r.retryUnsettled(r.b, []outMsg{{msg: &ibc.MsgRecvPacket{Packet: *packet(4)}, packet: packet(4)}})
	if err := tb.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	r.Resume()
	r.b.height = 2
	r.checkTimeouts(r.b, r.a)
	if err := tb.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(r.a.outbox) != 1 || r.a.outbox[0].packet.Sequence != 3 || r.a.outbox[0].kind() != kindTimeout {
		t.Fatalf("outbox = %+v, want one timeout, of sequence 3", r.a.outbox)
	}
	want := []pktState{1: pktReceived, 2: pktRecvSubmitted, 3: pktTimeoutBuilt, 4: pktReceived, 5: pktReceived}
	for seq := uint64(1); seq <= 5; seq++ {
		if got := r.a.packets.row(seq).st; got != want[seq] {
			t.Errorf("sequence %d in state %d, want %d", seq, got, want[seq])
		}
	}
}

// A released recv or ack re-queues the counterparty height its event was
// seen at, which under full proofs may lie below its proof height.
func TestReleaseRescansTheEventHeight(t *testing.T) {
	tb := newTestbed(1, false)
	r := New(tb.Sched, tb.RNG, Config{Name: "hermes-t", ClearIntervalBlocks: 1}, tb.Pair)
	p := &ibc.Packet{Sequence: 1, SourcePort: "transfer", SourceChannel: r.a.channel, DestPort: "transfer", DestChannel: r.b.channel}
	r.releaseBatch(r.b, []outMsg{{msg: &ibc.MsgRecvPacket{Packet: *p}, packet: p, proofHeight: 9, origin: 4}}, nil)
	if !slices.Equal(r.a.missed, []int64{4}) {
		t.Fatalf("missed = %v, want [4]", r.a.missed)
	}
}

// TestAbandonedCountsDeliverableMessages: a message given up counts as
// abandoned only while the chains' committed state says it could still
// land. A recv counts while the source holds the commitment and the
// destination has no receipt; an ack while the commitment is held.
func TestAbandonedCountsDeliverableMessages(t *testing.T) {
	tb := newTestbed(1, false)
	r := New(tb.Sched, tb.RNG, Config{Name: "hermes-t"}, tb.Pair)
	packet := func(seq uint64) *ibc.Packet {
		return &ibc.Packet{Sequence: seq, SourcePort: "transfer", SourceChannel: r.a.channel, DestPort: "transfer", DestChannel: r.b.channel, TimeoutHeight: 100}
	}
	recv := func(seq uint64) []outMsg {
		return []outMsg{{msg: &ibc.MsgRecvPacket{Packet: *packet(seq)}, packet: packet(seq)}}
	}
	plant := func(c *chain.Chain, kind app.RecordKind, channel string, seq uint64) {
		st := c.App.State()
		rec := ibc.PacketRecords(nil, kind, "transfer", channel)
		st.SetRecord(&rec, seq, []byte{1})
		st.CommitTx()
	}
	plant(tb.Pair.A, app.Commitment, r.a.channel, 1)
	plant(tb.Pair.A, app.Commitment, r.a.channel, 2)
	plant(tb.Pair.B, app.Receipt, r.b.channel, 2)
	steps := []struct {
		what  string
		give  func()
		total uint64
	}{
		{"deliverable recv released", func() { r.releaseBatch(r.b, recv(1), nil) }, 1},
		{"received recv released", func() { r.releaseBatch(r.b, recv(2), nil) }, 1},
		{"recv without commitment released", func() { r.releaseBatch(r.b, recv(3), nil) }, 1},
		{"ack of a held commitment released", func() {
			r.releaseBatch(r.a, []outMsg{{msg: &ibc.MsgAcknowledgement{Packet: *packet(2)}, packet: packet(2)}}, nil)
		}, 2},
	}
	for _, s := range steps {
		s.give()
		if got := r.Stats().Abandoned; got != s.total {
			t.Fatalf("after a %s: Abandoned = %d, want %d", s.what, got, s.total)
		}
	}
}

// TestPollingAllocatesAtMostOnePerPoll: a submitted transaction's
// confirmation polls reuse its flight record, the RPC call and the
// scheduler's events, so polling a transaction that never commits
// allocates at most one object per poll.
func TestPollingAllocatesAtMostOnePerPoll(t *testing.T) {
	tb := newTestbed(1, false) // chains not started: nothing commits
	r := New(tb.Sched, tb.RNG, Config{Name: "hermes-t"}, tb.Pair)
	f := &flight{dst: r.b, tx: app.NewTx(r.b.account, 0, 1, []app.Msg{&ibc.MsgRecvPacket{}}), polling: true}
	f.confirm()
	poll := func() { // runs until one more poll is answered "not found"
		for n := f.polls; f.polls == n; {
			if err := tb.Run(tb.Sched.Now() + simconf.RelayerConfirmPollInterval/10); err != nil {
				t.Fatal(err)
			}
		}
	}
	poll()
	if a := testing.AllocsPerRun(50, poll); a > 1 {
		t.Fatalf("a confirmation poll allocates %.1f times, want at most 1", a)
	}
	if _, q, _ := r.b.rpc.Stats(); f.polls != 52 || q != 52 {
		t.Fatalf("%d polls answered, %d queries, want 52 of each", f.polls, q)
	}
}

// TestFlushAllocatesThreeObjectsPerBatch: taking a batch off the outbox
// makes the batch's copy of it, its message list and its flight, and
// nothing else: the client update it needs is cut from the relayer's
// chunk, and its one update height lives on the flight.
func TestFlushAllocatesThreeObjectsPerBatch(t *testing.T) {
	tb := newTestbed(1, false)
	r := New(tb.Sched, tb.RNG, Config{Name: "hermes-t"}, tb.Pair)
	tb.Start()
	if err := tb.Run(20 * time.Second); err != nil { // a few blocks to update the client with
		t.Fatal(err)
	}
	src, dst := r.a, r.b
	h := src.chain.Store.Height()
	src.height = h
	p := &ibc.Packet{Sequence: 1, SourcePort: "transfer", SourceChannel: src.channel, DestPort: "transfer", DestChannel: dst.channel}
	m := outMsg{msg: &ibc.MsgAcknowledgement{Packet: *p, ProofHeight: h}, packet: p, proofHeight: h}
	var f *flight
	build := func() {
		delete(dst.clientHeights, h) // each batch updates the client again
		dst.outbox = append(dst.outbox[:0], m)
		f = r.nextFlight(dst)
	}
	if a := testing.AllocsPerRun(100, build); a > 3 {
		t.Fatalf("taking a one-message batch allocates %.1f times, want at most 3", a)
	}
	if len(f.msgs) != 2 || len(f.upd) != 1 || f.upd[0] != h || len(dst.outbox) != 0 {
		t.Fatalf("flight of %d messages updating heights %v, %d left in the outbox; want 2 messages, height %d and none",
			len(f.msgs), f.upd, len(dst.outbox), h)
	}
	if u, ok := f.msgs[0].(*ibc.MsgUpdateClient); !ok || u.Bundle.Header.Height != h {
		t.Fatalf("first message %T, want the client update to height %d", f.msgs[0], h)
	}
}
