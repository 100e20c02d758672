// Package sim provides a deterministic discrete-event simulation engine.
//
// All components of the benchmark (blockchains, relayers, the network)
// execute on a shared virtual clock owned by a Scheduler. Virtual seconds
// elapse in real microseconds, which lets the experiment drivers replay
// hours of the paper's wall-clock experiments deterministically and fast.
//
// An event runs a Handler. At, After and SerialResource.Submit take a
// plain func(), wrapped as a Func, which allocates nothing; AtHandler,
// AfterHandler and SubmitHandler take a Handler. The
// per-message paths (gossiped votes and proposals, RPC hops) schedule
// records they own and reuse, because a closure made per message costs
// one allocation per message.
package sim

import (
	"errors"
	"time"
)

// ErrStopped is returned by RunUntil when the scheduler was stopped
// before reaching its deadline.
var ErrStopped = errors.New("sim: scheduler stopped")

// Handler is the work an event does when it fires.
type Handler interface{ Fire() }

// Func adapts a plain function to Handler. A func value is a single
// pointer, so converting one to Handler allocates nothing.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// handler wraps fn, keeping nil nil.
func handler(fn func()) Handler {
	if fn == nil {
		return nil
	}
	return Func(fn)
}

// event is a handler scheduled to fire at a virtual time.
type event struct {
	at time.Duration
	// seq is assigned in creation order and breaks ties on at, so events
	// due at one instant fire in the order they were scheduled.
	seq uint64
	h   Handler

	// index is the event's slot in the queue while it is queued.
	index int
}

// before is the dispatch order. Every key is unique (seq is), so any
// correct heap pops events in exactly this order.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventQueue is a 4-ary min-heap on before that keeps every event's
// index current, so Cancel can remove an event from the middle. Four
// children per node halve the depth of a binary heap, and sifting down
// compares siblings that share a cache line.
type eventQueue []*event

func (q *eventQueue) push(ev *event) {
	*q = append(*q, ev)
	q.up(len(*q)-1, ev)
}

// remove takes the event at slot i out of the queue and returns it.
func (q *eventQueue) remove(i int) *event {
	h := *q
	ev := h[i]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	*q = h[:n]
	if i < n {
		// The last event fills the hole and may belong above or below it.
		if i > 0 && last.before(h[(i-1)/4]) {
			q.up(i, last)
		} else {
			q.down(i, last)
		}
	}
	return ev
}

// up places ev, which belongs at slot i or above it, by moving
// later-dispatched parents down.
func (q eventQueue) up(i int, ev *event) {
	for i > 0 {
		p := (i - 1) / 4
		if !ev.before(q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = i
		i = p
	}
	q[i] = ev
	ev.index = i
}

// down places ev, which belongs at slot i or below it, by moving its
// earliest child up while that child dispatches before ev.
func (q eventQueue) down(i int, ev *event) {
	n := len(q)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if q[j].before(q[m]) {
				m = j
			}
		}
		if !q[m].before(ev) {
			break
		}
		q[i] = q[m]
		q[i].index = i
		i = m
	}
	q[i] = ev
	ev.index = i
}

// Timer names one event scheduled by After, for Cancel. The zero Timer
// names nothing.
type Timer struct {
	ev  *event
	seq uint64
}

// Scheduler owns the virtual clock and the pending event queue.
//
// Scheduler is not safe for concurrent use: the simulation is
// single-threaded by design, which is what makes runs deterministic.
type Scheduler struct {
	queue   eventQueue
	now     time.Duration
	seq     uint64
	stopped bool

	// free recycles fired events so steady-state scheduling (the netem
	// send path fires one event per message) allocates nothing.
	free []*event

	// processed counts events executed so far, for diagnostics and
	// runaway-simulation protection.
	processed uint64

	// MaxEvents stops the run once this many events have fired (0 = no
	// cap).
	MaxEvents uint64
}

// NewScheduler returns an empty scheduler with the clock at zero.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now reports the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Processed reports how many events have executed.
func (s *Scheduler) Processed() uint64 { return s.processed }

// At schedules fn to run at virtual time t. Times in the past are clamped
// to the current time, so the event runs on the next dispatch.
func (s *Scheduler) At(t time.Duration, fn func()) { s.AtHandler(t, handler(fn)) }

// AtHandler is At for a Handler.
func (s *Scheduler) AtHandler(t time.Duration, h Handler) {
	if t < s.now {
		t = s.now
	}
	s.push(t, h)
}

// push schedules h at time t, which is not before now.
func (s *Scheduler) push(t time.Duration, h Handler) *event {
	if h == nil {
		return nil
	}
	s.seq++
	var ev *event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		ev.at, ev.seq, ev.h = t, s.seq, h
	} else {
		ev = &event{at: t, seq: s.seq, h: h}
	}
	s.queue.push(ev)
	return ev
}

// After schedules fn to run delta after the current virtual time and
// returns a Timer that Cancel takes to unschedule it.
func (s *Scheduler) After(delta time.Duration, fn func()) Timer {
	return s.AfterHandler(delta, handler(fn))
}

// AfterHandler is After for a Handler.
func (s *Scheduler) AfterHandler(delta time.Duration, h Handler) Timer {
	if delta < 0 {
		delta = 0
	}
	ev := s.push(s.now+delta, h)
	if ev == nil {
		return Timer{}
	}
	return Timer{ev: ev, seq: ev.seq}
}

// Cancel removes t's event from the queue, so it never fires. Events are
// recycled, so the Timer's seq tells its event from a later one in the
// same slot: cancelling a Timer whose event already fired or was
// cancelled does nothing. No other event's dispatch order changes, since
// every key was fixed when its event was scheduled.
func (s *Scheduler) Cancel(t Timer) {
	ev := t.ev
	if ev == nil || ev.seq != t.seq || ev.index >= len(s.queue) || s.queue[ev.index] != ev {
		return
	}
	s.queue.remove(ev.index)
	ev.h = nil
	s.free = append(s.free, ev)
}

// step executes the earliest pending event, advancing the clock. The
// event is recycled before its handler fires, so a handler that
// schedules follow-up work reuses the just-freed slot.
func (s *Scheduler) step() {
	ev := s.queue.remove(0)
	s.now = ev.at
	s.processed++
	h := ev.h
	ev.h = nil
	s.free = append(s.free, ev)
	h.Fire()
}

// RunUntil dispatches events with timestamps at or before deadline.
// The clock finishes at the deadline (or at the last event past it).
func (s *Scheduler) RunUntil(deadline time.Duration) error {
	s.stopped = false
	for len(s.queue) > 0 && s.queue[0].at <= deadline {
		if s.stopped {
			return ErrStopped
		}
		if s.MaxEvents > 0 && s.processed >= s.MaxEvents {
			return ErrStopped
		}
		s.step()
	}
	if s.now < deadline {
		s.now = deadline
	}
	return nil
}

// Ticker invokes fn every interval of virtual time until cancel is called.
type Ticker struct {
	cancelled bool
}

// Cancel stops future ticks. Safe to call multiple times.
func (t *Ticker) Cancel() { t.cancelled = true }

// Tick schedules fn to run every interval starting one interval from now.
// fn receives the ticker so callbacks can cancel themselves.
func (s *Scheduler) Tick(interval time.Duration, fn func(*Ticker)) *Ticker {
	if interval <= 0 {
		interval = time.Nanosecond
	}
	t := &Ticker{}
	var loop func()
	loop = func() {
		if t.cancelled {
			return
		}
		fn(t)
		if t.cancelled {
			return
		}
		s.After(interval, loop)
	}
	s.After(interval, loop)
	return t
}
