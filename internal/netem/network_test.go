package netem

import (
	"fmt"
	"testing"
	"time"

	"ibcbench/internal/sim"
)

func newNet(cfg Config) (*sim.Scheduler, *Network) {
	s := sim.NewScheduler()
	return s, New(s, sim.NewRNG(1), cfg)
}

func TestSendLatency(t *testing.T) {
	cfg := Config{OneWayLatency: 100 * time.Millisecond}
	s, n := newNet(cfg)
	var at time.Duration
	n.Send("a", "b", func() { at = s.Now() })
	if err := s.RunUntil(s.Now() + time.Hour); err != nil {
		t.Fatalf("run: %v", err)
	}
	if at != 100*time.Millisecond {
		t.Fatalf("delivered at %v, want 100ms", at)
	}
}

func TestLoopback(t *testing.T) {
	cfg := Config{OneWayLatency: 100 * time.Millisecond, LoopbackLatency: time.Millisecond}
	s, n := newNet(cfg)
	var at time.Duration
	n.Send("a", "a", func() { at = s.Now() })
	if err := s.RunUntil(s.Now() + time.Hour); err != nil {
		t.Fatalf("run: %v", err)
	}
	if at != time.Millisecond {
		t.Fatalf("loopback delivered at %v, want 1ms", at)
	}
}

func TestLinkOverride(t *testing.T) {
	cfg := Config{OneWayLatency: 100 * time.Millisecond}
	s, n := newNet(cfg)
	n.SetLinkLatency("a", "b", 5*time.Millisecond)
	var at time.Duration
	n.Send("a", "b", func() { at = s.Now() })
	var back time.Duration
	n.Send("b", "a", func() { back = s.Now() })
	if err := s.RunUntil(s.Now() + time.Hour); err != nil {
		t.Fatalf("run: %v", err)
	}
	if at != 5*time.Millisecond {
		t.Fatalf("override delivered at %v", at)
	}
	if back != 100*time.Millisecond {
		t.Fatalf("reverse direction %v, want default", back)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	s, n := newNet(Config{OneWayLatency: time.Millisecond})
	n.Partition("a", "b")
	delivered := 0
	n.Send("a", "b", func() { delivered++ })
	n.Send("b", "a", func() { delivered++ })
	n.Send("a", "c", func() { delivered++ })
	if err := s.RunUntil(s.Now() + time.Hour); err != nil {
		t.Fatalf("run: %v", err)
	}
	if delivered != 1 {
		t.Fatalf("delivered %d, want only a->c", delivered)
	}
	if n.Dropped() != 2 {
		t.Fatalf("dropped = %d", n.Dropped())
	}
	n.Heal("a", "b")
	n.Send("a", "b", func() { delivered++ })
	if err := s.RunUntil(s.Now() + time.Hour); err != nil {
		t.Fatalf("run: %v", err)
	}
	if delivered != 2 {
		t.Fatal("healed link did not deliver")
	}
}

// hop is a handler that counts its deliveries.
type hop struct{ n int }

func (h *hop) Fire() { h.n++ }

// TestSendHandlerReportsDrops: SendHandler says whether it scheduled the
// message, and only a scheduled message is delivered.
func TestSendHandlerReportsDrops(t *testing.T) {
	s, n := newNet(Config{OneWayLatency: time.Millisecond})
	n.Partition("a", "b")
	n.SetLinkExtraDrop("a", "c", 1)
	var h hop
	for _, to := range []Host{"b", "c", "d"} {
		if got, want := n.SendHandler("a", to, &h), to == "d"; got != want {
			t.Fatalf("send a->%s reported scheduled=%v, want %v", to, got, want)
		}
	}
	if err := s.RunUntil(s.Now() + time.Hour); err != nil {
		t.Fatalf("run: %v", err)
	}
	if h.n != 1 || n.Dropped() != 2 {
		t.Fatalf("delivered %d, dropped %d; want 1 and 2", h.n, n.Dropped())
	}
}

func TestDropRate(t *testing.T) {
	s, n := newNet(Config{OneWayLatency: time.Millisecond, DropRate: 0.5})
	delivered := 0
	const total = 2000
	for i := 0; i < total; i++ {
		n.Send("a", "b", func() { delivered++ })
	}
	if err := s.RunUntil(s.Now() + time.Hour); err != nil {
		t.Fatalf("run: %v", err)
	}
	if delivered < total/3 || delivered > 2*total/3 {
		t.Fatalf("delivered %d of %d with 50%% drop", delivered, total)
	}
	if n.Sent() != total {
		t.Fatalf("sent = %d", n.Sent())
	}
	if int(n.Dropped())+delivered != total {
		t.Fatalf("dropped(%d)+delivered(%d) != total", n.Dropped(), delivered)
	}
}

func TestJitterVariesDelivery(t *testing.T) {
	cfg := Config{OneWayLatency: 100 * time.Millisecond, JitterRelStd: 0.1}
	s, n := newNet(cfg)
	seen := make(map[time.Duration]bool)
	for i := 0; i < 50; i++ {
		n.Send("a", "b", func() { seen[s.Now()] = true })
	}
	if err := s.RunUntil(s.Now() + time.Hour); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(seen) < 10 {
		t.Fatalf("jitter produced only %d distinct delivery times", len(seen))
	}
}

// TestLinkLatencyKeepsConfigDrop: an overridden pair changes latency
// only; the config's drop rate still applies to it.
func TestLinkLatencyKeepsConfigDrop(t *testing.T) {
	s, n := newNet(Config{OneWayLatency: 100 * time.Millisecond, DropRate: 1})
	n.SetLinkLatency("a", "b", 10*time.Millisecond)
	delivered := 0
	n.Send("a", "b", func() { delivered++ })
	if err := s.RunUntil(s.Now() + time.Hour); err != nil {
		t.Fatalf("run: %v", err)
	}
	if delivered != 0 || n.Dropped() != 1 {
		t.Fatalf("delivered %d, dropped %d; the config drops every send", delivered, n.Dropped())
	}
}

func TestLinkOverlaySpikeAndClear(t *testing.T) {
	cfg := Config{OneWayLatency: 10 * time.Millisecond}
	s, n := newNet(cfg)
	n.SetLinkExtraLatency("a", "b", 40*time.Millisecond)
	var at time.Duration
	n.Send("a", "b", func() { at = s.Now() })
	if err := s.RunUntil(s.Now() + time.Hour); err != nil {
		t.Fatalf("run: %v", err)
	}
	if at != 50*time.Millisecond {
		t.Fatalf("spiked delivery at %v, want 50ms", at)
	}
	n.SetLinkExtraLatency("a", "b", 0)
	start := s.Now()
	n.Send("a", "b", func() { at = s.Now() - start })
	if err := s.RunUntil(s.Now() + time.Hour); err != nil {
		t.Fatalf("run: %v", err)
	}
	if at != 10*time.Millisecond {
		t.Fatalf("post-clear delivery took %v, want 10ms", at)
	}
}

func TestLinkOverlayDropBurst(t *testing.T) {
	s, n := newNet(Config{OneWayLatency: time.Millisecond})
	n.SetLinkExtraDrop("a", "b", 1)
	delivered := 0
	n.Send("a", "b", func() { delivered++ })
	if err := s.RunUntil(s.Now() + time.Hour); err != nil {
		t.Fatalf("run: %v", err)
	}
	if delivered != 0 || n.Dropped() != 1 {
		t.Fatalf("burst did not drop: delivered=%d dropped=%d", delivered, n.Dropped())
	}
	n.SetLinkExtraDrop("a", "b", 0)
	n.Send("a", "b", func() { delivered++ })
	if err := s.RunUntil(s.Now() + time.Hour); err != nil {
		t.Fatalf("run: %v", err)
	}
	if delivered != 1 {
		t.Fatal("cleared burst still dropping")
	}
}

// TestOverlayComponentsCompose: a latency spike and a drop burst on one
// pair are independent — setting or clearing one leaves the other.
func TestOverlayComponentsCompose(t *testing.T) {
	s, n := newNet(Config{OneWayLatency: 10 * time.Millisecond})
	n.SetLinkExtraLatency("a", "b", 40*time.Millisecond)
	n.SetLinkExtraDrop("a", "b", 1)
	delivered := 0
	n.Send("a", "b", func() { delivered++ })
	if err := s.RunUntil(s.Now() + time.Hour); err != nil {
		t.Fatalf("run: %v", err)
	}
	if delivered != 0 {
		t.Fatal("burst not active alongside spike")
	}
	// Clearing the burst must not cancel the spike.
	n.SetLinkExtraDrop("a", "b", 0)
	var at time.Duration
	start := s.Now()
	n.Send("a", "b", func() { at = s.Now() - start })
	if err := s.RunUntil(s.Now() + time.Hour); err != nil {
		t.Fatalf("run: %v", err)
	}
	if at != 50*time.Millisecond {
		t.Fatalf("spike lost after burst cleared: delivery took %v", at)
	}
}

func TestPartitionsRefcount(t *testing.T) {
	s, n := newNet(Config{OneWayLatency: time.Millisecond})
	// delivers reports whether a message sent now from one host to the
	// other arrives.
	delivers := func(from, to Host) bool {
		ok := false
		n.Send(from, to, func() { ok = true })
		if err := s.RunUntil(s.Now() + time.Hour); err != nil {
			t.Fatalf("run: %v", err)
		}
		return ok
	}
	n.Partition("a", "b") // fault 1 (e.g. whole-link blackout)
	n.Partition("a", "b") // fault 2 (e.g. relayer-host partition)
	if delivers("a", "b") || delivers("b", "a") {
		t.Fatal("partition not visible")
	}
	n.Heal("a", "b") // fault 2 heals; fault 1 still severs the pair
	if delivers("a", "b") {
		t.Fatal("healing one overlapping fault un-severed the pair")
	}
	n.Heal("a", "b")
	if !delivers("a", "b") || !delivers("b", "a") {
		t.Fatal("heal not visible")
	}
	n.Heal("a", "b") // unbalanced heal is a no-op
	if !delivers("a", "b") {
		t.Fatal("unbalanced heal partitioned the pair")
	}
}

// TestSendSteadyStateAllocs pins the hot-path satellite: after warm-up,
// Send + dispatch allocates nothing (the scheduler recycles events and
// the override map is consulted with at most one lookup).
func TestSendSteadyStateAllocs(t *testing.T) {
	s, n := newNet(DefaultWAN())
	fn := func() {}
	for i := 0; i < 64; i++ { // warm the event freelist and queue capacity
		n.Send("a", "b", fn)
	}
	if err := s.RunUntil(s.Now() + time.Hour); err != nil {
		t.Fatalf("run: %v", err)
	}
	avg := testing.AllocsPerRun(200, func() {
		n.Send("a", "b", fn)
		if err := s.RunUntil(s.Now() + time.Hour); err != nil {
			t.Fatalf("run: %v", err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state Send allocates %.2f allocs/op, want 0", avg)
	}
}

// BenchmarkNetemSend pins the per-message send cost. Before the hot-path
// rework each Send paid two two-string map-key hashes (partition check +
// latency override) and one *event heap allocation (ROADMAP's "netem
// send allocation"); after it, the override map is consulted with a
// single lookup — skipped entirely while no overrides exist — and the
// scheduler recycles fired events, so steady state runs at 0 allocs/op
// (was 1 alloc/op for the scheduled event).
func BenchmarkNetemSend(b *testing.B) {
	fn := func() {}
	bench := func(b *testing.B, setup func(*Network)) {
		s, n := newNet(DefaultWAN())
		setup(n)
		for i := 0; i < 64; i++ {
			n.Send("a", "b", fn)
		}
		if err := s.RunUntil(s.Now() + time.Hour); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.Send("a", "b", fn)
			if i%1024 == 1023 { // 1 024 events queued
				if err := s.RunUntil(s.Now() + time.Hour); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := s.RunUntil(s.Now() + time.Hour); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("uniform", func(b *testing.B) {
		bench(b, func(*Network) {})
	})
	b.Run("with-profile", func(b *testing.B) {
		bench(b, func(n *Network) {
			n.SetLinkLatency("a", "b", 40*time.Millisecond)
		})
	})
	b.Run("other-pairs-overridden", func(b *testing.B) {
		bench(b, func(n *Network) {
			for i := 0; i < 64; i++ {
				n.SetLinkLatency(Host(fmt.Sprintf("x%d", i)), "y", 5*time.Millisecond)
			}
		})
	})
}

func TestDefaultsMatchPaper(t *testing.T) {
	wan := DefaultWAN()
	if rtt := 2 * wan.OneWayLatency; rtt != 200*time.Millisecond {
		t.Fatalf("WAN RTT = %v, paper enforces 200ms", rtt)
	}
}
