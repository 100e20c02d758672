// Package metrics implements the paper's Analysis module: per-packet
// lifecycle tracking across both chains (the Cross-chain Event Processor
// of Fig. 5), completion-status classification (Figs. 10/11), the
// 13-step latency breakdown (Fig. 12) and distribution summaries for the
// violin plots (Fig. 6).
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"
)

// Step is one of the 13 steps of a cross-chain transfer (Fig. 12).
type Step int

// The 13 steps, in execution order.
const (
	StepTransferBroadcast Step = iota + 1
	StepTransferExtraction
	StepTransferConfirmation
	StepTransferDataPull
	StepRecvBuild
	StepRecvBroadcast
	StepRecvExtraction
	StepRecvConfirmation
	StepRecvDataPull
	StepAckBuild
	StepAckBroadcast
	StepAckExtraction
	StepAckConfirmation

	// NumSteps is the count of lifecycle steps.
	NumSteps = int(StepAckConfirmation)
)

// String names the step as in Fig. 12.
func (s Step) String() string {
	names := [...]string{
		"Transfer broadcast", "Transfer msg. extraction", "Transfer confirmation",
		"Transfer data pull", "Recv build", "Recv broadcast", "Recv msg. extraction",
		"Recv confirmation", "Recv data pull", "Ack build", "Ack broadcast",
		"Ack msg. extraction", "Ack confirmation",
	}
	if s < 1 || int(s) > len(names) {
		return fmt.Sprintf("Step(%d)", int(s))
	}
	return names[s-1]
}

// Status is a transfer's completion classification (Figs. 10/11).
type Status int

// Completion states, from most to least complete.
const (
	// StatusCompleted: transfer, receive and acknowledge all recorded.
	StatusCompleted Status = iota + 1
	// StatusPartial: transfer and receive recorded, no acknowledgement.
	StatusPartial
	// StatusInitiated: only the transfer recorded.
	StatusInitiated
	// StatusNotCommitted: the transfer never reached the source chain.
	StatusNotCommitted
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusCompleted:
		return "completed"
	case StatusPartial:
		return "partial"
	case StatusInitiated:
		return "initiated"
	case StatusNotCommitted:
		return "not committed"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// MarshalText renders the status name, so map[Status]int completion
// tallies serialize with readable JSON keys in persisted run results.
func (s Status) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a status name written by MarshalText.
func (s *Status) UnmarshalText(text []byte) error {
	for _, c := range []Status{StatusCompleted, StatusPartial, StatusInitiated, StatusNotCommitted} {
		if string(text) == c.String() {
			*s = c
			return nil
		}
	}
	return fmt.Errorf("metrics: unknown status %q", text)
}

// PacketKey identifies one cross-chain transfer packet.
type PacketKey struct {
	SrcChain string
	Channel  string
	Sequence uint64
}

// Lifecycle holds one packet's per-step times: at[i] is when step i+1
// was reached, valid where bit i of set is on (so time 0 is
// representable). It holds no pointer, so the collector skips chunks.
type Lifecycle struct {
	at  [NumSteps]time.Duration
	set uint16
}

// StepTime returns when the packet reached a step.
func (l *Lifecycle) StepTime(step Step) (time.Duration, bool) {
	i := int(step) - 1
	if i < 0 || i >= NumSteps || l.set&(1<<i) == 0 {
		return 0, false
	}
	return l.at[i], true
}

// status classifies by the furthest confirmation reached, in Status order.
func (l *Lifecycle) status() Status {
	for i, step := range [...]Step{StepAckConfirmation, StepRecvConfirmation, StepTransferConfirmation} {
		if l.set&(1<<(step-1)) != 0 {
			return StatusCompleted + Status(i)
		}
	}
	return StatusNotCommitted
}

// chunkLen is the number of records in one chunk of a channel table.
const chunkLen = 256

// channelTable holds the records of the packets one chain sent on one
// channel; the record of sequence s is chunks[s/chunkLen][s%chunkLen].
type channelTable struct {
	srcChain, channel string
	chunks            []*[chunkLen]Lifecycle
}

// unseen is the record of every packet never recorded.
var unseen Lifecycle

// Tracker is the Cross-chain Event Processor: it aggregates events from
// both blockchains and the relayer into per-packet lifecycles.
//
// It keeps one table per (source chain, channel), sorted by that pair.
// IBC numbers a channel's packets densely from 1, so a sequence is an
// index: a record is found by comparing against a link's one or two
// channels, with no hashing, and walks go in (chain, channel, sequence)
// order. Records are inline and pointer-free, in chunks allocated on
// first touch, so growth never copies one.
//
// Writers lock: one link's tracker receives records from actors on both
// of its chains' partitions. Readers (the analysis pass, the scenario
// driver's route polling) run with every partition quiesced and need no
// lock.
type Tracker struct {
	mu      sync.Mutex
	tables  []channelTable
	tracked int

	// requested counts transfers requested from the workload, including
	// those that never committed (no packet key ever existed).
	requested int
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker { return &Tracker{} }

// AddRequested registers transfers submitted by the workload before they
// reach the chain.
func (t *Tracker) AddRequested(n int) {
	t.mu.Lock()
	t.requested += n
	t.mu.Unlock()
}

// find returns the index of the key's table, or where it belongs.
func (t *Tracker) find(key PacketKey) (int, bool) {
	for i := range t.tables {
		tb := &t.tables[i]
		if tb.srcChain == key.SrcChain && tb.channel == key.Channel {
			return i, true
		}
		if tb.srcChain > key.SrcChain || tb.srcChain == key.SrcChain && tb.channel > key.Channel {
			return i, false
		}
	}
	return len(t.tables), false
}

// slot returns a packet's record. A writer (grow) makes its table and
// chunk on first touch; a reader gets unseen for a packet never recorded.
func (t *Tracker) slot(key PacketKey, grow bool) *Lifecycle {
	ti, ok := t.find(key)
	if !ok && !grow {
		return &unseen
	} else if !ok {
		t.tables = slices.Insert(t.tables, ti, channelTable{srcChain: key.SrcChain, channel: key.Channel})
	}
	tb := &t.tables[ti]
	ci := int(key.Sequence / chunkLen)
	if ci >= len(tb.chunks) || tb.chunks[ci] == nil {
		if !grow {
			return &unseen
		}
		tb.chunks = append(tb.chunks, make([]*[chunkLen]Lifecycle, max(0, ci+1-len(tb.chunks)))...)
		tb.chunks[ci] = new([chunkLen]Lifecycle)
	}
	return &tb.chunks[ci][key.Sequence%chunkLen]
}

// Record marks a step reached for a packet at a virtual time. The
// earliest recorded time wins — in virtual-time order that is exactly
// the old first-write-wins rule (a redundant relayer's later duplicate
// completion never moves the time), stated in a form independent of the
// order concurrent partitions happen to call in.
func (t *Tracker) Record(key PacketKey, step Step, at time.Duration) {
	i := int(step) - 1
	if i < 0 || i >= NumSteps {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := t.slot(key, true)
	if rec.set&(1<<i) != 0 && rec.at[i] <= at {
		return
	}
	if rec.set == 0 {
		t.tracked++
	}
	rec.set |= 1 << i
	rec.at[i] = at
}

// StepTime returns when a packet reached a step.
func (t *Tracker) StepTime(key PacketKey, step Step) (time.Duration, bool) {
	return t.slot(key, false).StepTime(step)
}

// Tracked reports the number of packets with any recorded step.
func (t *Tracker) Tracked() int { return t.tracked }

// Walk calls fn on every tracked packet in deterministic order (source
// chain, channel, then sequence) — trace synthesis walks this to emit
// byte-identical per-packet spans across same-seed runs.
func (t *Tracker) Walk(fn func(key PacketKey, rec *Lifecycle)) {
	for i := range t.tables {
		tb := &t.tables[i]
		for ci, c := range tb.chunks {
			for j := 0; c != nil && j < chunkLen; j++ {
				if c[j].set != 0 {
					fn(PacketKey{SrcChain: tb.srcChain, Channel: tb.channel, Sequence: uint64(ci*chunkLen + j)}, &c[j])
				}
			}
		}
	}
}

// StatusOf classifies one packet.
func (t *Tracker) StatusOf(key PacketKey) Status { return t.slot(key, false).status() }

// CompletionCounts tallies packets by status (Figs. 10/11). Requests
// beyond the packets with a transfer broadcast — a step the workload
// records for its own packets only, never a forwarded hop — count as
// not committed.
func (t *Tracker) CompletionCounts() map[Status]int {
	out := map[Status]int{
		StatusCompleted: 0, StatusPartial: 0,
		StatusInitiated: 0, StatusNotCommitted: 0,
	}
	broadcast := 0
	t.Walk(func(_ PacketKey, rec *Lifecycle) {
		out[rec.status()]++
		if _, ok := rec.StepTime(StepTransferBroadcast); ok {
			broadcast++
		}
	})
	if t.requested > broadcast {
		out[StatusNotCommitted] += t.requested - broadcast
	}
	return out
}

// MergeCounts sums per-status tallies across trackers — the aggregation
// step for per-edge trackers in multi-chain topologies.
func MergeCounts(counts ...map[Status]int) map[Status]int {
	out := map[Status]int{
		StatusCompleted: 0, StatusPartial: 0,
		StatusInitiated: 0, StatusNotCommitted: 0,
	}
	for _, c := range counts {
		for s, n := range c {
			out[s] += n
		}
	}
	return out
}

// CompletionTimes returns, for completed packets, the latency from
// transfer broadcast to acknowledgement confirmation.
func (t *Tracker) CompletionTimes() []time.Duration {
	var out []time.Duration
	t.Walk(func(_ PacketKey, rec *Lifecycle) {
		from, ok1 := rec.StepTime(StepTransferBroadcast)
		to, ok2 := rec.StepTime(StepAckConfirmation)
		if ok1 && ok2 {
			out = append(out, to-from)
		}
	})
	slices.Sort(out)
	return out
}

// StepCompletionCurve returns, for one step, the sorted absolute times at
// which each packet finished it — the curves of Figs. 12/13.
func (t *Tracker) StepCompletionCurve(step Step) []time.Duration {
	var out []time.Duration
	t.Walk(func(_ PacketKey, rec *Lifecycle) {
		if at, ok := rec.StepTime(step); ok {
			out = append(out, at)
		}
	})
	slices.Sort(out)
	return out
}

// StepSpan reports the first and last completion times of a step.
func (t *Tracker) StepSpan(step Step) (first, last time.Duration, ok bool) {
	t.Walk(func(_ PacketKey, rec *Lifecycle) {
		if at, reached := rec.StepTime(step); reached {
			if !ok {
				first, last, ok = at, at, true
			}
			first, last = min(first, at), max(last, at)
		}
	})
	return first, last, ok
}

// Series is a named ordered collection of duration samples — e.g. the
// per-transfer arrival latencies of one hop of a multi-hop route.
type Series struct {
	Name    string
	Samples []time.Duration
}

// Add appends a sample.
func (s *Series) Add(d time.Duration) { s.Samples = append(s.Samples, d) }

// Len reports the sample count.
func (s Series) Len() int { return len(s.Samples) }

// Sum returns the total of all samples — e.g. cumulative downtime over
// a run's outage windows.
func (s Series) Sum() time.Duration {
	var total time.Duration
	for _, d := range s.Samples {
		total += d
	}
	return total
}

// Max returns the largest sample (0 when empty).
func (s Series) Max() time.Duration {
	var m time.Duration
	for _, d := range s.Samples {
		if d > m {
			m = d
		}
	}
	return m
}

// Dist summarizes the series in seconds.
func (s Series) Dist() Dist {
	samples := make([]float64, len(s.Samples))
	for i, d := range s.Samples {
		samples[i] = d.Seconds()
	}
	return Summarize(samples)
}

// Dist is a five-number-plus-moments summary used for violin plots.
type Dist struct {
	N         int
	Min, Max  float64
	Median    float64
	Q1, Q3    float64
	Mean, Std float64
}

// Summarize computes a Dist over samples.
func Summarize(samples []float64) Dist {
	d := Dist{N: len(samples)}
	if len(samples) == 0 {
		return d
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	d.Min, d.Max = s[0], s[len(s)-1]
	d.Median = Quantile(s, 0.5)
	d.Q1 = Quantile(s, 0.25)
	d.Q3 = Quantile(s, 0.75)
	var sum float64
	for _, v := range s {
		sum += v
	}
	d.Mean = sum / float64(len(s))
	var sq float64
	for _, v := range s {
		sq += (v - d.Mean) * (v - d.Mean)
	}
	if len(s) > 1 {
		d.Std = math.Sqrt(sq / float64(len(s)-1))
	}
	return d
}

// Quantile interpolates the q-th quantile of ascending-sorted samples
// (linear interpolation between closest ranks). Edge cases are total:
// an empty series yields 0, a single sample is every quantile of
// itself, and q is clamped to [0, 1] — out-of-range requests previously
// indexed outside the slice.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	if q < 0 || math.IsNaN(q) {
		q = 0
	} else if q > 1 {
		q = 1
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// String renders a Dist compactly.
func (d Dist) String() string {
	return fmt.Sprintf("n=%d min=%.1f q1=%.1f med=%.1f q3=%.1f max=%.1f mean=%.1f std=%.1f",
		d.N, d.Min, d.Q1, d.Median, d.Q3, d.Max, d.Mean, d.Std)
}
