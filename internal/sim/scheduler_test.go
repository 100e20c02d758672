package sim

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.At(3*time.Second, func() { got = append(got, 3) })
	s.At(1*time.Second, func() { got = append(got, 1) })
	s.At(2*time.Second, func() { got = append(got, 2) })
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 3*time.Second {
		t.Fatalf("now = %v, want 3s", s.Now())
	}
}

func TestSchedulerFIFOAtSameTime(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Second, func() { got = append(got, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestSchedulerPastEventClamped(t *testing.T) {
	s := NewScheduler()
	var fired bool
	s.At(5*time.Second, func() {
		s.At(time.Second, func() { fired = true }) // in the past
	})
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !fired {
		t.Fatal("past-scheduled event did not fire")
	}
	if s.Now() != 5*time.Second {
		t.Fatalf("clock moved backwards: %v", s.Now())
	}
}

func TestSchedulerAfterNested(t *testing.T) {
	s := NewScheduler()
	var at []time.Duration
	s.After(time.Second, func() {
		at = append(at, s.Now())
		s.After(2*time.Second, func() { at = append(at, s.Now()) })
	})
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if at[0] != time.Second || at[1] != 3*time.Second {
		t.Fatalf("times = %v", at)
	}
}

// TestSchedulerEventRecycling: the freelist behind the zero-alloc send
// path must never mix up recycled events — callbacks scheduled from
// inside other callbacks (which reuse just-freed slots) still fire in
// strict (time, submission) order with their own closures.
func TestSchedulerEventRecycling(t *testing.T) {
	s := NewScheduler()
	const n = 500
	var got []int
	for i := 0; i < n; i++ {
		i := i
		s.At(time.Duration(i)*time.Millisecond, func() {
			got = append(got, i)
			// Nested event lands between the outer ones and reuses the
			// slot just freed by this very callback.
			s.After(500*time.Microsecond, func() { got = append(got, n+i) })
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2*n {
		t.Fatalf("fired %d events, want %d", len(got), 2*n)
	}
	for i := 0; i < n; i++ {
		if got[2*i] != i || got[2*i+1] != n+i {
			t.Fatalf("order broken at %d: %v %v", i, got[2*i], got[2*i+1])
		}
	}
	if s.Processed() != 2*n {
		t.Fatalf("processed = %d", s.Processed())
	}
}

// counter is a Handler that records its firings.
type counter struct {
	s    *Scheduler
	name string
	log  *[]string
}

func (c *counter) Fire() { *c.log = append(*c.log, fmt.Sprintf("%s@%v", c.name, c.s.Now())) }

// TestHandlersShareTheFuncOrder: a handler and a func scheduled through
// either form are events of one kind, dispatched in one (at, seq) order,
// and wrapping a func as a Handler allocates nothing.
func TestHandlersShareTheFuncOrder(t *testing.T) {
	s := NewScheduler()
	var log []string
	mark := func(name string) func() {
		return func() { log = append(log, fmt.Sprintf("%s@%v", name, s.Now())) }
	}
	s.AfterHandler(2*time.Millisecond, &counter{s, "h1", &log})
	s.After(time.Millisecond, mark("f1"))
	s.AtHandler(time.Millisecond, &counter{s, "h2", &log})
	s.At(2*time.Millisecond, mark("f2"))
	NewSerialResource(s).SubmitHandler(time.Millisecond, &counter{s, "h3", &log})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[f1@1ms h2@1ms h3@1ms h1@2ms f2@2ms]"
	if got := fmt.Sprint(log); got != want {
		t.Fatalf("fired %s, want %s", got, want)
	}
	fn := func() {}
	var h Handler
	if a := testing.AllocsPerRun(100, func() { h = Func(fn) }); a != 0 {
		t.Fatalf("wrapping a func allocates %.1f times", a)
	}
	_ = h
}

func TestSchedulerStop(t *testing.T) {
	s := NewScheduler()
	n := 0
	for i := 1; i <= 5; i++ {
		s.At(time.Duration(i)*time.Second, func() {
			n++
			if n == 2 {
				s.Stop()
			}
		})
	}
	if err := s.Run(); err != ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if n != 2 {
		t.Fatalf("executed %d events, want 2", n)
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler()
	var got []time.Duration
	for i := 1; i <= 5; i++ {
		d := time.Duration(i) * time.Second
		s.At(d, func() { got = append(got, d) })
	}
	if err := s.RunUntil(3 * time.Second); err != nil {
		t.Fatalf("run until: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("ran %d events, want 3", len(got))
	}
	if s.Now() != 3*time.Second {
		t.Fatalf("now = %v", s.Now())
	}
	// Resume to drain the rest.
	if err := s.Run(); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if len(got) != 5 {
		t.Fatalf("ran %d events after resume, want 5", len(got))
	}
}

func TestSchedulerRunUntilAdvancesIdleClock(t *testing.T) {
	s := NewScheduler()
	if err := s.RunUntil(10 * time.Second); err != nil {
		t.Fatalf("run until: %v", err)
	}
	if s.Now() != 10*time.Second {
		t.Fatalf("now = %v, want 10s", s.Now())
	}
}

func TestSchedulerMaxEvents(t *testing.T) {
	s := NewScheduler()
	s.MaxEvents = 100
	var loop func()
	loop = func() { s.After(time.Millisecond, loop) }
	s.After(time.Millisecond, loop)
	if err := s.Run(); err != ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if s.Processed() != 100 {
		t.Fatalf("processed = %d, want 100", s.Processed())
	}
}

func TestTicker(t *testing.T) {
	s := NewScheduler()
	var ticks []time.Duration
	s.Tick(time.Second, func(tk *Ticker) {
		ticks = append(ticks, s.Now())
		if len(ticks) == 3 {
			tk.Cancel()
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(ticks) != 3 {
		t.Fatalf("ticks = %v", ticks)
	}
	for i, want := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		if ticks[i] != want {
			t.Fatalf("tick %d at %v, want %v", i, ticks[i], want)
		}
	}
}

func TestTickerCancelBeforeFirstTick(t *testing.T) {
	s := NewScheduler()
	fired := false
	tk := s.Tick(time.Second, func(*Ticker) { fired = true })
	tk.Cancel()
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if fired {
		t.Fatal("cancelled ticker fired")
	}
}

func TestSerialResourceSequencing(t *testing.T) {
	s := NewScheduler()
	r := NewSerialResource(s)
	var finish []time.Duration
	// Three requests submitted at t=0 with 1s service each must finish at
	// 1s, 2s, 3s: the resource processes them one at a time.
	for i := 0; i < 3; i++ {
		r.Submit(time.Second, func() { finish = append(finish, s.Now()) })
	}
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	want := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
	if r.BusyTime() != 3*time.Second {
		t.Fatalf("busy = %v", r.BusyTime())
	}
}

func TestSerialResourceIdleGap(t *testing.T) {
	s := NewScheduler()
	r := NewSerialResource(s)
	var finish []time.Duration
	r.Submit(time.Second, func() { finish = append(finish, s.Now()) })
	// Second request arrives after the first completed; no queueing.
	s.At(5*time.Second, func() {
		r.Submit(time.Second, func() { finish = append(finish, s.Now()) })
	})
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if finish[0] != time.Second || finish[1] != 6*time.Second {
		t.Fatalf("finish = %v", finish)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGJitterBounds(t *testing.T) {
	g := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := g.Jitter(100, 0.1)
		if v < 0 {
			t.Fatalf("jitter produced negative value %v", v)
		}
		if v < 100*(1-0.1*4)-1e-9 || v > 100*(1+0.1*4)+1e-9 {
			t.Fatalf("jitter %v outside 4-sigma bounds", v)
		}
	}
	if got := g.Jitter(0, 0.5); got != 0 {
		t.Fatalf("jitter(0) = %v", got)
	}
	if got := g.Jitter(100, 0); got != 100 {
		t.Fatalf("jitter relStd=0 = %v", got)
	}
}

// Property: events always fire in non-decreasing time order regardless of
// insertion order.
func TestSchedulerOrderingProperty(t *testing.T) {
	prop := func(offsets []uint16) bool {
		if len(offsets) == 0 {
			return true
		}
		s := NewScheduler()
		var fired []time.Duration
		for _, off := range offsets {
			d := time.Duration(off) * time.Millisecond
			s.At(d, func() { fired = append(fired, s.Now()) })
		}
		if err := s.Run(); err != nil {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(offsets)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a serial resource's completion times are spaced by at least
// the service times, and total busy time equals the sum of services.
func TestSerialResourceProperty(t *testing.T) {
	prop := func(services []uint16) bool {
		s := NewScheduler()
		r := NewSerialResource(s)
		var total time.Duration
		var finishes []time.Duration
		for _, sv := range services {
			d := time.Duration(sv) * time.Millisecond
			total += d
			r.Submit(d, func() { finishes = append(finishes, s.Now()) })
		}
		if err := s.Run(); err != nil {
			return false
		}
		if r.BusyTime() != total {
			return false
		}
		// All submitted at t=0, so the last completion equals total.
		if len(finishes) > 0 && finishes[len(finishes)-1] != total {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCancelledEventNeverFires(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.After(time.Second, func() { got = append(got, 1) })
	tm := s.After(2*time.Second, func() { got = append(got, 2) })
	s.After(3*time.Second, func() { got = append(got, 3) })
	s.Cancel(tm)
	if s.Len() != 2 {
		t.Fatalf("len = %d after cancel, want 2", s.Len())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("fired %v, want [1 3]", got)
	}
	if s.Processed() != 2 {
		t.Fatalf("processed = %d, want 2", s.Processed())
	}
}

// TestCancelStaleTimerIsNoOp: a Timer whose event fired, was cancelled
// or was recycled into a new event names nothing; cancelling it leaves
// the event now in that slot queued.
func TestCancelStaleTimerIsNoOp(t *testing.T) {
	s := NewScheduler()
	fired := 0
	done := s.After(time.Second, func() { fired++ })
	if err := s.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	s.Cancel(done) // fired
	cancelled := s.After(time.Second, func() { t.Fatal("cancelled event fired") })
	s.Cancel(cancelled)
	s.Cancel(cancelled) // already cancelled
	// The next event reuses the freed slot of one of the handles above.
	reused := s.After(time.Second, func() { fired++ })
	if reused.ev != done.ev && reused.ev != cancelled.ev {
		t.Fatal("the new event did not reuse a freed slot")
	}
	s.Cancel(done)
	s.Cancel(cancelled)
	s.Cancel(Timer{})
	if s.Len() != 1 {
		t.Fatalf("len = %d, want the reused event still queued", s.Len())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("fired %d, want 2", fired)
	}
}

// TestCancelKeepsSurvivorOrder: cancelling events dispatches the rest in
// the order, and at the times, of the same schedule with the cancelled
// callbacks made no-ops.
func TestCancelKeepsSurvivorOrder(t *testing.T) {
	type firing struct {
		id int
		at time.Duration
	}
	run := func(cancel bool) []firing {
		s := NewScheduler()
		rng := NewRNG(5)
		var got []firing
		dead := map[int]bool{}
		var timers []Timer
		var ids []int
		next := 0
		var schedule func(depth int)
		schedule = func(depth int) {
			id := next
			next++
			delay := time.Duration(rng.Intn(50)) * time.Millisecond
			tm := s.After(delay, func() {
				if dead[id] {
					return
				}
				got = append(got, firing{id, s.Now()})
				if depth < 3 {
					schedule(depth + 1)
					schedule(depth + 1)
				}
			})
			timers, ids = append(timers, tm), append(ids, id)
			if rng.Intn(3) == 0 && len(timers) > 1 {
				k := rng.Intn(len(timers))
				dead[ids[k]] = true
				if cancel {
					s.Cancel(timers[k])
				}
			}
		}
		for i := 0; i < 40; i++ {
			schedule(0)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	want, got := run(false), run(true)
	if len(got) != len(want) {
		t.Fatalf("%d survivors fired, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// FuzzSchedulerQueue runs random At/After/Cancel/step sequences against
// a sorted-slice model of the queue. Each op is two bytes, a kind and an
// argument. An event whose kind has the nest bit schedules a child from
// inside its callback, reusing the slot its own firing just freed.
func FuzzSchedulerQueue(f *testing.F) {
	const at, after, cancel, step, nest = 0, 1, 2, 3, 4
	f.Add([]byte{at, 5, after, 3, after, 3, cancel, 1, step, 0, step, 0, step, 0})
	f.Add([]byte{after | nest, 0, after, 0, step, 0, cancel, 0, cancel, 1, after, 9, cancel, 0, step, 0})
	f.Add([]byte{after, 7, after, 2, after, 4, after, 1, cancel, 2, step, 0, at, 0, cancel, 2, step, 0})
	type mev struct {
		at, ctime time.Duration
		seq       uint64
		id        int
		child     time.Duration // delay of the nested event, or -1
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewScheduler()
		var model []mev // sorted by (at, ctime, seq)
		var seq uint64
		var fired []int
		insert := func(e mev) {
			seq++
			e.seq = seq
			i := sort.Search(len(model), func(i int) bool {
				m := model[i]
				if m.at != e.at {
					return m.at > e.at
				}
				return m.ctime > e.ctime || (m.ctime == e.ctime && m.seq > e.seq)
			})
			model = append(model, mev{})
			copy(model[i+1:], model[i:])
			model[i] = e
		}
		// fn fires event id; a child's id is -id-1.
		fn := func(id int, child time.Duration) func() {
			return func() {
				fired = append(fired, id)
				if child >= 0 {
					s.After(child, func() { fired = append(fired, -id-1) })
				}
			}
		}
		var timers []Timer
		var timerIDs []int
		ids := 0
		for ; len(data) >= 2; data = data[2:] {
			kind, arg := data[0], time.Duration(data[1])*time.Millisecond
			child := time.Duration(-1)
			if kind&nest != 0 {
				child = arg % (7 * time.Millisecond)
			}
			switch kind & 3 {
			case at:
				s.At(arg, fn(ids, child))
				insert(mev{at: max(arg, s.Now()), ctime: s.Now(), id: ids, child: child})
				ids++
			case after:
				timers = append(timers, s.After(arg, fn(ids, child)))
				timerIDs = append(timerIDs, ids)
				insert(mev{at: s.Now() + arg, ctime: s.Now(), id: ids, child: child})
				ids++
			case cancel:
				if len(timers) == 0 {
					continue
				}
				k := int(data[1]) % len(timers)
				s.Cancel(timers[k])
				for i, m := range model {
					if m.id == timerIDs[k] {
						model = append(model[:i], model[i+1:]...)
						break
					}
				}
			case step:
				if len(model) == 0 {
					continue
				}
				head := model[0]
				model = model[1:]
				fired = fired[:0]
				s.step()
				if len(fired) != 1 || fired[0] != head.id || s.Now() != head.at {
					t.Fatalf("step fired %v at %v, model has %d at %v", fired, s.Now(), head.id, head.at)
				}
				if head.child >= 0 {
					insert(mev{at: head.at + head.child, ctime: head.at, id: -head.id - 1, child: -1})
				}
			}
			if s.Len() != len(model) {
				t.Fatalf("queue holds %d events, model %d", s.Len(), len(model))
			}
		}
		fired = fired[:0]
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		// Draining fires the model's events in order, children of the
		// drained events included.
		var want []int
		for len(model) > 0 {
			head := model[0]
			model = model[1:]
			want = append(want, head.id)
			if head.child >= 0 {
				insert(mev{at: head.at + head.child, ctime: head.at, id: -head.id - 1, child: -1})
			}
		}
		if len(fired) != len(want) {
			t.Fatalf("drain fired %v, model %v", fired, want)
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("drain fired %v, model %v", fired, want)
			}
		}
	})
}
