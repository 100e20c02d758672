package relayer

import (
	"testing"
	"time"

	"ibcbench/internal/chain"
	"ibcbench/internal/ibc/transfer"
	"ibcbench/internal/metrics"
	"ibcbench/internal/netem"
	"ibcbench/internal/sim"
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
	voucher := transfer.VoucherPrefix("transfer", "channel-0") + "uatom"
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
