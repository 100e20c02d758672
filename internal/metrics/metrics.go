// Package metrics implements the paper's Analysis module: per-packet
// lifecycle tracking across both chains (the Cross-chain Event Processor
// of Fig. 5), completion-status classification (Figs. 10/11), the
// 13-step latency breakdown (Fig. 12) and distribution summaries for the
// violin plots (Fig. 6).
package metrics

import (
	"fmt"
	"math"
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

// packetRecord holds per-step completion times; zero = not reached
// (guarded by the set bitmap so time 0 is representable).
type packetRecord struct {
	at  [NumSteps]time.Duration
	set [NumSteps]bool
}

// Tracker is the Cross-chain Event Processor: it aggregates events from
// both blockchains and the relayer into per-packet lifecycles.
//
// Writers lock: one link's tracker receives records from actors on both
// of its chains' partitions. Readers (the analysis pass, the scenario
// driver's route polling) run with every partition quiesced and need no
// lock.
type Tracker struct {
	mu      sync.Mutex
	packets map[PacketKey]*packetRecord

	// requested counts transfers requested from the workload, including
	// those that never committed (no packet key ever existed).
	requested int
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{packets: make(map[PacketKey]*packetRecord)}
}

// AddRequested registers transfers submitted by the workload before they
// reach the chain.
func (t *Tracker) AddRequested(n int) {
	t.mu.Lock()
	t.requested += n
	t.mu.Unlock()
}

// Requested reports the number of workload-requested transfers.
func (t *Tracker) Requested() int { return t.requested }

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
	rec, ok := t.packets[key]
	if !ok {
		rec = &packetRecord{}
		t.packets[key] = rec
	}
	if rec.set[i] && rec.at[i] <= at {
		return
	}
	rec.set[i] = true
	rec.at[i] = at
}

// StepTime returns when a packet reached a step.
func (t *Tracker) StepTime(key PacketKey, step Step) (time.Duration, bool) {
	rec, ok := t.packets[key]
	if !ok {
		return 0, false
	}
	i := int(step) - 1
	if !rec.set[i] {
		return 0, false
	}
	return rec.at[i], true
}

// Tracked reports the number of packets with any recorded step.
func (t *Tracker) Tracked() int { return len(t.packets) }

// Keys returns every tracked packet key in deterministic order (source
// chain, channel, then sequence) — trace synthesis iterates this to emit
// byte-identical per-packet spans across same-seed runs.
func (t *Tracker) Keys() []PacketKey {
	out := make([]PacketKey, 0, len(t.packets))
	for key := range t.packets {
		out = append(out, key)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.SrcChain != b.SrcChain {
			return a.SrcChain < b.SrcChain
		}
		if a.Channel != b.Channel {
			return a.Channel < b.Channel
		}
		return a.Sequence < b.Sequence
	})
	return out
}

// StatusOf classifies one packet.
func (t *Tracker) StatusOf(key PacketKey) Status {
	rec, ok := t.packets[key]
	if !ok {
		return StatusNotCommitted
	}
	switch {
	case rec.set[StepAckConfirmation-1]:
		return StatusCompleted
	case rec.set[StepRecvConfirmation-1]:
		return StatusPartial
	case rec.set[StepTransferConfirmation-1]:
		return StatusInitiated
	default:
		return StatusNotCommitted
	}
}

// CompletionCounts tallies packets by status (Figs. 10/11). Transfers
// requested but never tracked count as not committed.
func (t *Tracker) CompletionCounts() map[Status]int {
	out := map[Status]int{
		StatusCompleted: 0, StatusPartial: 0,
		StatusInitiated: 0, StatusNotCommitted: 0,
	}
	for key := range t.packets {
		out[t.StatusOf(key)]++
	}
	if t.requested > len(t.packets) {
		out[StatusNotCommitted] += t.requested - len(t.packets)
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

// CompletedBetween counts packets fully completed in a time window.
func (t *Tracker) CompletedBetween(from, to time.Duration) int {
	n := 0
	for _, rec := range t.packets {
		if rec.set[StepAckConfirmation-1] {
			at := rec.at[StepAckConfirmation-1]
			if at >= from && at <= to {
				n++
			}
		}
	}
	return n
}

// CompletionTimes returns, for completed packets, the latency from
// transfer broadcast to acknowledgement confirmation.
func (t *Tracker) CompletionTimes() []time.Duration {
	var out []time.Duration
	for _, rec := range t.packets {
		if rec.set[StepTransferBroadcast-1] && rec.set[StepAckConfirmation-1] {
			out = append(out, rec.at[StepAckConfirmation-1]-rec.at[StepTransferBroadcast-1])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// StepCompletionCurve returns, for one step, the sorted absolute times at
// which each packet finished it — the curves of Figs. 12/13.
func (t *Tracker) StepCompletionCurve(step Step) []time.Duration {
	var out []time.Duration
	i := int(step) - 1
	for _, rec := range t.packets {
		if rec.set[i] {
			out = append(out, rec.at[i])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// StepSpan reports the first and last completion times of a step.
func (t *Tracker) StepSpan(step Step) (first, last time.Duration, ok bool) {
	curve := t.StepCompletionCurve(step)
	if len(curve) == 0 {
		return 0, 0, false
	}
	return curve[0], curve[len(curve)-1], true
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
