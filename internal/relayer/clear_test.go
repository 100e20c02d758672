package relayer

import (
	"testing"
	"time"

	"ibcbench/internal/metrics"
	"ibcbench/internal/simconf"
	"ibcbench/internal/tendermint/rpc"
	"ibcbench/internal/workload"
)

// TestClearRecoversDroppedFrames drives the clear-interval rescan path: a
// subscription shim replaces the frames of a few source heights with
// "failed to collect events" errors, and the relayer's periodic clearing
// pass must rescan those blocks and deliver every packet anyway. The
// pinned counters and completion span fingerprint the rescan's
// virtual-time behaviour (guarding the shared-scan refactor).
func TestClearRecoversDroppedFrames(t *testing.T) {
	tb := newTestbed(31, false)
	tracker := metrics.NewTracker()
	rcfg := Config{Name: "hermes-clear", Tracker: tracker, ClearIntervalBlocks: 2}
	r := New(tb.Sched, tb.RNG, rcfg, tb.Pair)
	// Subscribe through a shim instead of r.Start(): frames of heights
	// 2-6 on chain A are corrupted into frame-too-large errors.
	drop := func(h int64) bool { return h >= 2 && h <= 6 }
	r.a.rpc.Subscribe(r.host, func(f *rpc.EventFrame) {
		if drop(f.Height) {
			r.onFrame(r.a, r.b, &rpc.EventFrame{Height: f.Height, BlockTime: f.BlockTime, Err: rpc.ErrFrameTooLarge})
			return
		}
		r.onFrame(r.a, r.b, f)
	})
	r.b.rpc.Subscribe(r.host, func(f *rpc.EventFrame) { r.onFrame(r.b, r.a, f) })
	gen := workload.NewOnChannel(tb.Sched, tb.RNG, tb.Pair.A, tb.Pair.B, tb.Pair.ChannelAB, r.EndpointRPC("ibc-0"), tracker)
	tb.Start()
	tb.Sched.At(time.Second, func() { gen.SubmitBatch(300) })
	if err := tb.Run(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	counts := tracker.CompletionCounts()
	st := r.Stats()
	lat := tracker.CompletionTimes()
	t.Logf("counts=%v stats=%+v nlat=%d first=%v last=%v", counts, st, len(lat), lat[0], lat[len(lat)-1])
	if counts[metrics.StatusCompleted] != 300 {
		t.Fatalf("completion = %v (stats %+v)", counts, st)
	}
	if st.FramesLost != 5 {
		t.Fatalf("FramesLost = %d, want 5", st.FramesLost)
	}
	// Exact virtual-time pins: the rescan must stay byte-identical to the
	// pinned run, not just functionally correct. Re-captured when the
	// network moved to per-sender-host latency streams (the partition-
	// independent draw order the parallel runner relies on).
	if first, last := lat[0], lat[len(lat)-1]; first != 29792861428*time.Nanosecond || last != 30143147904*time.Nanosecond {
		t.Fatalf("completion span = [%v, %v], want [29.792861428s, 30.143147904s]", first, last)
	}
}

// TestLostHeightsLedger pins the clearing ledger the per-commit check
// reads: a queued height is safe while a pass is pending or its query
// is in flight, and lost once neither holds and it was never re-scanned;
// a relayer that does not clear, or is stopped, reports nothing, and
// Resume gives what a stop left queued a pass.
func TestLostHeightsLedger(t *testing.T) {
	tb := newTestbed(5, false)
	r := New(tb.Sched, tb.RNG, Config{Name: "hermes-ledger", ClearIntervalBlocks: 1}, tb.Pair)
	if lost := r.LostHeights("ibc-0"); lost != nil {
		t.Fatalf("fresh relayer lost %v", lost)
	}
	r.a.queue(7)
	if lost := r.LostHeights("ibc-0"); len(lost) != 1 || lost[0] != 7 {
		t.Fatalf("queued height with no pass pending: lost = %v, want [7]", lost)
	}
	if lost := r.LostHeights("ibc-1"); lost != nil {
		t.Fatalf("ibc-1 lost %v, queued nothing", lost)
	}
	r.scheduleClear(r.a, r.b)
	if lost := r.LostHeights("ibc-0"); lost != nil {
		t.Fatalf("queued height with a pass pending: lost = %v", lost)
	}
	// The pass takes the height off the list and queries it: still safe.
	if err := tb.Run(simconf.MinBlockInterval); err != nil {
		t.Fatal(err)
	}
	if len(r.a.missed) != 0 || r.a.querying[7] != 1 {
		t.Fatalf("after the pass: missed %v, querying %v", r.a.missed, r.a.querying)
	}
	if lost := r.LostHeights("ibc-0"); lost != nil {
		t.Fatalf("height queried now: lost = %v", lost)
	}
	// A query answered without a re-scan or a requeue is a loss (the
	// planted defect: drop the ledger's query and leave the height).
	delete(r.a.querying, 7)
	if lost := r.LostHeights("ibc-0"); len(lost) != 1 {
		t.Fatalf("dropped query: lost = %v, want height 7", lost)
	}
	// A pass that falls due while the relayer is stopped does not run;
	// Resume schedules another for what is still queued.
	r.Stop()
	if lost := r.LostHeights("ibc-0"); lost != nil {
		t.Fatalf("stopped relayer: lost = %v", lost)
	}
	r.b.queue(9)
	r.scheduleClear(r.b, r.a)
	if err := tb.Run(tb.Sched.Now() + simconf.MinBlockInterval); err != nil {
		t.Fatal(err)
	}
	if len(r.b.missed) != 1 || r.b.passes != 0 {
		t.Fatalf("pass while stopped: missed %v, passes %d", r.b.missed, r.b.passes)
	}
	r.Resume()
	if lost := r.LostHeights("ibc-1"); lost != nil {
		t.Fatalf("after Resume: lost = %v, want a pass pending", lost)
	}
	r.cfg.ClearIntervalBlocks = 0
	if lost := r.LostHeights("ibc-0"); lost != nil {
		t.Fatalf("relayer that does not clear: lost = %v", lost)
	}
}
