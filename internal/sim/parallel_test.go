package sim

import (
	"errors"
	"testing"
	"time"
)

// TestParallelMatchesSerialOrder drives the same event graph through the
// serial scheduler and a two-partition runner: each partition's dispatch
// sequence (the order its actors observe, and therefore every RNG stream
// they consume) must match the serial run's sequence restricted to that
// partition. A single global interleaving is not the contract — only
// per-partition order is observable by simulation state.
func TestParallelMatchesSerialOrder(t *testing.T) {
	run := func(sched func(part int) *Scheduler, post func(src, dst int, delay time.Duration, fn func()), runUntil func(time.Duration) error) [2][]string {
		var orders [2][]string
		mark := func(part int, s string) func() {
			return func() { orders[part] = append(orders[part], s) }
		}
		// Partition 0 pings partition 1 at staggered latencies; partition 1
		// responds; both keep local timers running throughout.
		for i := 0; i < 5; i++ {
			i := i
			at := time.Duration(i+1) * 10 * time.Millisecond
			sched(0).At(at, func() {
				orders[0] = append(orders[0], "p0-local")
				post(1, 2, 7*time.Millisecond+time.Duration(i)*time.Millisecond, mark(1, "p0->p1"))
			})
			sched(1).At(at+3*time.Millisecond, func() {
				orders[1] = append(orders[1], "p1-local")
				post(2, 1, 9*time.Millisecond, mark(0, "p1->p0"))
			})
		}
		if err := runUntil(time.Second); err != nil {
			t.Fatal(err)
		}
		return orders
	}

	serial := NewScheduler()
	serialOrders := run(
		func(int) *Scheduler { return serial },
		func(src, dst int, delay time.Duration, fn func()) { serial.After(delay, fn) },
		serial.RunUntil,
	)

	// A single worker keeps the per-partition logs race-free; window
	// scheduling is identical for any worker count.
	par := NewParallel(2, 1, 5*time.Millisecond)
	parOrders := run(
		func(i int) *Scheduler { return par.Partition(i) },
		func(src, dst int, delay time.Duration, fn func()) {
			now := par.SchedulerOf(src).Now()
			par.Post(src, dst, now+delay, now, Func(fn))
		},
		par.RunUntil,
	)

	for part := 0; part < 2; part++ {
		if len(serialOrders[part]) != len(parOrders[part]) {
			t.Fatalf("partition %d: serial dispatched %d events, parallel %d",
				part, len(serialOrders[part]), len(parOrders[part]))
		}
		for i := range serialOrders[part] {
			if serialOrders[part][i] != parOrders[part][i] {
				t.Fatalf("partition %d order diverged at %d: serial %v parallel %v",
					part, i, serialOrders[part], parOrders[part])
			}
		}
	}
}

// TestParallelZeroLatencySelfLinks pins intra-partition zero-delay
// sends (a host messaging itself, or any same-partition link with zero
// latency): they stay ordinary scheduler events, dispatch inside the
// current window at the same virtual instant, and preserve the serial
// creation-order tiebreak — the latency horizon constrains only
// cross-partition traffic.
func TestParallelZeroLatencySelfLinks(t *testing.T) {
	// One worker: partitions drain sequentially within a window, so the
	// shared order log is race-free and fully deterministic.
	par := NewParallel(2, 1, 5*time.Millisecond)
	var order []string
	var at []time.Duration
	sched := par.Partition(0)
	sched.At(10*time.Millisecond, func() {
		order = append(order, "root")
		// Zero-delay chain scheduled mid-drain: must run within this
		// window, after already-queued same-instant events, in FIFO order.
		sched.After(0, func() {
			order = append(order, "self-a")
			at = append(at, sched.Now())
			sched.After(0, func() {
				order = append(order, "self-b")
				at = append(at, sched.Now())
			})
		})
	})
	sched.At(10*time.Millisecond, func() { order = append(order, "peer") })
	// An unrelated event far beyond the window: must not interleave.
	par.Partition(1).At(11*time.Millisecond, func() { order = append(order, "other-part") })
	if err := par.RunUntil(12 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	want := []string{"root", "peer", "self-a", "self-b", "other-part"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	for _, ts := range at {
		if ts != 10*time.Millisecond {
			t.Fatalf("zero-delay self-link ran at %v, want 10ms", ts)
		}
	}
}

// TestParallelSameTimestampCrossPartitionFIFO pins the barrier merge's
// tie-break: messages arriving at one partition at the same instant from
// several sources dispatch by creation time first, then source slot, then
// posting order — a stable, run-independent ordering.
func TestParallelSameTimestampCrossPartitionFIFO(t *testing.T) {
	par := NewParallel(3, 3, 10*time.Millisecond)
	var order []string
	mark := func(s string) Func { return func() { order = append(order, s) } }
	// Both partitions 1 and 2 post to partition 0: identical arrival time,
	// but partition 2's messages were created earlier.
	par.Partition(0).At(20*time.Millisecond, func() {
		now := par.Partition(0).Now()
		par.Post(1, 3, now+40*time.Millisecond, now, mark("late-creation-a"))
		par.Post(1, 3, now+40*time.Millisecond, now, mark("late-creation-b"))
	})
	par.Partition(1).At(10*time.Millisecond, func() {
		now := par.Partition(1).Now()
		par.Post(2, 3, now+50*time.Millisecond, now, mark("early-creation"))
	})
	if err := par.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	want := []string{"early-creation", "late-creation-a", "late-creation-b"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestParallelDeadlineInsideWindow pins RunUntil's exclusive-window
// semantics: a deadline landing mid-window still dispatches every event
// at or before it (and nothing after), with all clocks parked exactly at
// the deadline.
func TestParallelDeadlineInsideWindow(t *testing.T) {
	par := NewParallel(2, 2, time.Hour) // horizon far beyond the deadline
	var fired []time.Duration
	for _, at := range []time.Duration{time.Millisecond, 50 * time.Millisecond, 99 * time.Millisecond, 101 * time.Millisecond} {
		at := at
		par.Partition(0).At(at, func() { fired = append(fired, at) })
	}
	if err := par.RunUntil(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 || fired[2] != 99*time.Millisecond {
		t.Fatalf("fired = %v, want the three events at or before the deadline", fired)
	}
	if par.Now() != 100*time.Millisecond || par.Partition(0).Now() != 100*time.Millisecond || par.Partition(1).Now() != 100*time.Millisecond {
		t.Fatalf("clocks parked at %v/%v/%v, want 100ms each",
			par.Now(), par.Partition(0).Now(), par.Partition(1).Now())
	}
	// A second leg resumes exactly where the first stopped.
	if err := par.RunUntil(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 4 || fired[3] != 101*time.Millisecond {
		t.Fatalf("second leg fired = %v", fired)
	}
}

// TestParallelStopMidWindow pins Stop's contract: the window in progress
// finishes (so the post-stop state is worker-count independent) and
// RunUntil reports ErrStopped without reaching the deadline.
func TestParallelStopMidWindow(t *testing.T) {
	par := NewParallel(2, 2, 10*time.Millisecond)
	var after bool
	par.Partition(0).At(5*time.Millisecond, func() { par.Stop() })
	par.Partition(1).At(30*time.Millisecond, func() { after = true })
	err := par.RunUntil(time.Second)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if after {
		t.Fatal("event beyond the stopping window dispatched")
	}
	// The run can resume and drain the remainder.
	if err := par.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if !after {
		t.Fatal("resumed run skipped the pending event")
	}
}

// TestParallelZeroHorizonErrors pins the no-lookahead safety net: a
// non-positive horizon cannot form a window and must surface as an error
// rather than livelock (deployments gate on this and fall back to
// serial).
func TestParallelZeroHorizonErrors(t *testing.T) {
	par := NewParallel(2, 2, 0)
	par.Partition(0).At(time.Millisecond, func() {})
	if err := par.RunUntil(time.Second); err == nil {
		t.Fatal("zero-horizon run succeeded")
	}
}

// TestParallelDeployTimePostsInjectDirectly pins the pre-run path: posts
// issued while no window is draining (deployment wiring) land in the
// destination queue immediately and participate in the first window's
// schedule.
func TestParallelDeployTimePostsInjectDirectly(t *testing.T) {
	par := NewParallel(2, 2, 10*time.Millisecond)
	var got bool
	par.Post(1, 2, 3*time.Millisecond, 0, Func(func() { got = true }))
	if err := par.RunUntil(5 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("deploy-time cross-partition post never dispatched")
	}
}
