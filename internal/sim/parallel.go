// Conservative parallel execution of one simulation run.
//
// A Parallel runner splits the event space into partitions (one per
// chain cluster: its consensus actors, application, RPC servers and
// local workload drivers), each owning a private Scheduler, plus one
// global scheduler for run-wide actors (chaos timelines, route
// drivers). Partitions advance in lockstep windows [W0, W1) bounded by
// the cross-partition latency horizon H: every message a partition
// emits during a window is delivered at least H later, so no event
// inside the window can depend on another partition's events in the
// same window — the classical Chandy–Misra–Bryant lookahead argument.
// Within a window each partition drains its queue serially, keeping
// per-partition event order (and every RNG stream consumed from it)
// identical to the serial scheduler.
//
// Cross-partition effects are posted as timestamped mailbox messages
// and merged at each window barrier, ordered by (arrival time,
// creation time, source partition, posting order). In the serial
// scheduler, dispatch order is (at, ctime, seq) where seq is creation
// order — so two events with distinct (at, ctime) merge into exactly
// the serial position, and only "double ties" (equal arrival AND equal
// creation time across partitions) can diverge, which jittered link
// latencies make a measure-zero coincidence. Global events run at
// exact-time barriers with every partition quiesced, before partition
// events at the same timestamp — again matching the serial order,
// because global actors are scheduled at deploy time (creation time
// zero) and partition events at the same instant were created later.
package sim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// GlobalPartition is the partition slot of the global scheduler.
const GlobalPartition = 0

// pmsg is one cross-partition message awaiting barrier merge.
type pmsg struct {
	dst   int
	at    time.Duration
	ctime time.Duration
	h     Handler
}

// Parallel coordinates one run across partitioned schedulers.
type Parallel struct {
	global  *Scheduler
	parts   []*Scheduler
	hosts   map[string]int
	horizon time.Duration
	workers int

	// mail[slot] buffers messages posted by that slot's partition during
	// the current window; each is appended only by its own worker, so no
	// locking is needed. Slot 0 (global) injects directly instead: it
	// only runs at barriers, when every partition is quiesced.
	mail     [][]pmsg
	mergeBuf []pmsg

	// inWindow is true while partition workers drain a window. It is
	// written only by the coordinating goroutine, before workers start
	// and after they join, so Post may read it without synchronization:
	// posts from outside a window (deploy wiring, quiesced barriers)
	// inject directly into the target queue.
	inWindow bool

	stopReq atomic.Bool
}

// NewParallel builds a runner with the given number of chain partitions,
// draining windows on up to `workers` OS threads. The horizon must be a
// positive lower bound on every cross-partition delivery latency.
func NewParallel(partitions, workers int, horizon time.Duration) *Parallel {
	if partitions < 1 {
		partitions = 1
	}
	if workers < 1 {
		workers = 1
	}
	p := &Parallel{
		global:  NewScheduler(),
		horizon: horizon,
		workers: workers,
		hosts:   make(map[string]int),
		mail:    make([][]pmsg, partitions+1),
	}
	for i := 0; i < partitions; i++ {
		p.parts = append(p.parts, NewScheduler())
	}
	return p
}

// Global returns the run-wide scheduler (slot 0): chaos timelines, route
// drivers and anything else that must observe cross-partition state runs
// here, at quiesced barriers.
func (p *Parallel) Global() *Scheduler { return p.global }

// Partition returns chain partition i's scheduler (0-based).
func (p *Parallel) Partition(i int) *Scheduler { return p.parts[i] }

// SetHorizon replaces the window bound — deployments compute the exact
// cross-partition latency floor only after every link profile exists.
// Call only between runs (or before the first), never mid-window.
func (p *Parallel) SetHorizon(h time.Duration) { p.horizon = h }

// AssignHost maps a network host onto chain partition i (0-based).
// Unassigned hosts resolve to the global partition.
func (p *Parallel) AssignHost(host string, i int) {
	p.hosts[host] = i + 1
}

// PartitionOf resolves a host to its partition slot (0 = global).
func (p *Parallel) PartitionOf(host string) int { return p.hosts[host] }

// SchedulerOf returns the scheduler behind a partition slot.
func (p *Parallel) SchedulerOf(slot int) *Scheduler {
	if slot == GlobalPartition {
		return p.global
	}
	return p.parts[slot-1]
}

// Post delivers h to partition slot dst at virtual time `at`, created
// at `ctime` on slot src. Posts from partition workers buffer until the
// window barrier; posts from the global slot (which only executes at
// barriers) inject directly.
func (p *Parallel) Post(src, dst int, at, ctime time.Duration, h Handler) {
	if src == GlobalPartition || !p.inWindow {
		// Global posts and posts outside a window (deployment wiring,
		// quiesced barriers) happen on the coordinating goroutine with
		// every clock agreed — inject in creation order, which is the
		// serial scheduler's order for these events.
		p.SchedulerOf(dst).injectAt(at, ctime, h)
		return
	}
	p.mail[src] = append(p.mail[src], pmsg{dst: dst, at: at, ctime: ctime, h: h})
}

// Stop requests the run to halt at the next window barrier. Partitions
// finish the window in progress, so the post-stop state is deterministic
// regardless of worker count.
func (p *Parallel) Stop() { p.stopReq.Store(true) }

// Processed sums executed events across the global and all partition
// schedulers.
func (p *Parallel) Processed() uint64 {
	n := p.global.Processed()
	for _, s := range p.parts {
		n += s.Processed()
	}
	return n
}

// Now reports the global virtual clock (all clocks agree at barriers).
func (p *Parallel) Now() time.Duration { return p.global.Now() }

// RunUntil dispatches events with timestamps at or before deadline,
// byte-identical to Scheduler.RunUntil on the union of the queues. All
// clocks finish at the deadline. Returns ErrStopped on Stop (from the
// runner or any partition scheduler) without advancing to the deadline,
// mirroring the serial contract.
func (p *Parallel) RunUntil(deadline time.Duration) error {
	p.stopReq.Store(false)
	p.global.stopped = false
	for _, s := range p.parts {
		s.stopped = false
	}
	// Exclusive upper bound: a window ending at deadline+1ns drains
	// events at exactly the deadline, matching RunUntil's inclusive
	// semantics.
	bound := deadline + time.Nanosecond
	for {
		if p.stopReq.Load() {
			return ErrStopped
		}
		t0, any := p.global.nextAt()
		for _, s := range p.parts {
			if t, ok := s.nextAt(); ok && (!any || t < t0) {
				t0, any = t, true
			}
		}
		if !any || t0 > deadline {
			break
		}
		// Quiesce every clock at t0 so barrier-time sends compute
		// delivery times from the same instant the serial clock held.
		if p.global.now < t0 {
			p.global.now = t0
		}
		for _, s := range p.parts {
			if s.now < t0 {
				s.now = t0
			}
		}
		if gt, ok := p.global.nextAt(); ok && gt == t0 {
			// Global events at t0 run first, fully quiesced. They may
			// inject work at t0 into partitions (run next window) or
			// more global events at t0 (keep draining).
			for {
				if p.global.stopped || p.stopReq.Load() {
					return ErrStopped
				}
				gt, ok := p.global.nextAt()
				if !ok || gt != t0 {
					break
				}
				p.global.step()
			}
			continue
		}
		end := t0 + p.horizon
		if end <= t0 {
			return fmt.Errorf("sim: parallel horizon %v yields empty window at %v", p.horizon, t0)
		}
		if gt, ok := p.global.nextAt(); ok && gt < end {
			end = gt
		}
		if bound < end {
			end = bound
		}
		p.inWindow = true
		stopped := p.runWindows(end)
		p.inWindow = false
		p.flushMail(end)
		if stopped {
			return ErrStopped
		}
	}
	// Park every clock at the deadline (the final window may have
	// advanced them to deadline+1ns).
	p.global.now = deadline
	for _, s := range p.parts {
		s.now = deadline
	}
	return nil
}

// runWindows drains every partition's [now, end) window, fanning out
// over the worker pool. Reports whether any partition stopped.
func (p *Parallel) runWindows(end time.Duration) bool {
	n := len(p.parts)
	w := p.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		stopped := false
		for _, s := range p.parts {
			if !s.runWindow(end) {
				stopped = true
			}
		}
		return stopped
	}
	var next atomic.Int32
	var anyStopped atomic.Bool
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if !p.parts[i].runWindow(end) {
					anyStopped.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return anyStopped.Load()
}

// flushMail merges the window's cross-partition messages into their
// target queues in serial-equivalent order: (arrival, creation, source
// partition, posting order) — the stable sort over slot-then-post
// concatenation provides the last two keys.
func (p *Parallel) flushMail(end time.Duration) {
	buf := p.mergeBuf[:0]
	for slot := range p.mail {
		buf = append(buf, p.mail[slot]...)
		p.mail[slot] = p.mail[slot][:0]
	}
	if len(buf) == 0 {
		return
	}
	sort.SliceStable(buf, func(i, j int) bool {
		if buf[i].at != buf[j].at {
			return buf[i].at < buf[j].at
		}
		return buf[i].ctime < buf[j].ctime
	})
	for i := range buf {
		m := &buf[i]
		if m.at < end {
			panic(fmt.Sprintf("sim: horizon violation: message created at %v arrives at %v inside window ending %v",
				m.ctime, m.at, end))
		}
		p.SchedulerOf(m.dst).injectAt(m.at, m.ctime, m.h)
		m.h = nil
	}
	p.mergeBuf = buf[:0]
}
