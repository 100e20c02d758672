package experiments

import (
	"fmt"
	"io"
	"time"

	"ibcbench/internal/metrics"
	"ibcbench/internal/scenario"
	"ibcbench/internal/simconf"
)

// DefaultFaultWindows are the swept primary-outage durations; 0 is the
// fault-free baseline.
var DefaultFaultWindows = []time.Duration{
	0,
	30 * time.Second,
	60 * time.Second,
	120 * time.Second,
}

// FailoverRow summarizes one fault-window duration across seeds.
type FailoverRow struct {
	// Window is how long the primary relayer's host stays partitioned.
	Window time.Duration
	// Completed is the faulted edge's completed-transfer distribution.
	Completed metrics.Dist
	// Latency summarizes the faulted edge's mean per-packet completion
	// latency of each seed (seconds): a distribution of per-seed means,
	// not of pooled per-packet samples.
	Latency metrics.Dist
	// Downtime is the supervisor-measured outage time per seed (seconds).
	Downtime metrics.Dist
	// Takeovers sums standby activations across seeds.
	Takeovers int
	// StandbyRecv sums packets the standby delivered across seeds.
	StandbyRecv uint64
	// Backlog is the first seed's cleared-backlog curve on the faulted
	// edge (absolute completion times).
	Backlog metrics.Series
}

// FailoverResult is the relayer-failover experiment: a supervised
// topology (standby relayer per edge) under primary-host partitions of
// increasing duration, reporting completion, packet latency, measured
// downtime and the post-outage catch-up curve per fault window.
type FailoverResult struct {
	Spec    string
	Regions string
	Rate    int
	Seeds   int
	// FaultStart is when the partition opens (virtual time).
	FaultStart time.Duration
	Rows       []FailoverRow
}

// Failover runs the relayer-failover experiment on the given topology
// (every edge gets a standby; edge 0's primary is the fault target).
// opt.Regions optionally places the deployment on a geo preset.
func Failover(opt Options, spec string, rate int) (FailoverResult, error) {
	if rate <= 0 {
		return FailoverResult{}, fmt.Errorf("experiments: failover needs a per-edge rate >= 1 (got %d)", rate)
	}
	specs := make([]scenario.Spec, len(DefaultFaultWindows))
	for i, w := range DefaultFaultWindows {
		specs[i] = failoverSpec(opt, spec, rate, w)
	}
	seedOf := func(w, i int) int64 { return int64(9000*(w+1) + i) }
	perWin, err := specGrid(opt, "failover "+spec, specs, seedOf, result)
	if err != nil {
		return FailoverResult{}, err
	}
	out := FailoverResult{
		Spec: spec, Regions: opt.Regions, Rate: rate,
		Seeds: opt.seeds(), FaultStart: failoverFaultStart,
	}
	for w, runs := range perWin {
		row := FailoverRow{Window: DefaultFaultWindows[w]}
		var completed, downtime, latencies []float64
		for i, res := range runs {
			e0 := res.Edges[0]
			completed = append(completed, float64(e0.Completion[metrics.StatusCompleted]))
			if f := e0.Failover; f != nil {
				downtime = append(downtime, f.Downtime.Sum().Seconds())
				row.Takeovers += f.Takeovers
				row.StandbyRecv += f.Standby.RecvDelivered
			}
			latencies = append(latencies, e0.Latency.Mean)
			if i == 0 {
				row.Backlog = e0.Cleared
			}
		}
		row.Completed = metrics.Summarize(completed)
		row.Latency = metrics.Summarize(latencies)
		row.Downtime = metrics.Summarize(downtime)
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// failoverFaultStart is when the partition opens (virtual time).
const failoverFaultStart = 3 * simconf.MinBlockInterval

// failoverSpec is one fault window's scenario: a standby on every edge,
// and edge 0's primary relayer partitioned for the window's duration
// (0 = the fault-free baseline).
func failoverSpec(opt Options, spec string, rate int, window time.Duration) scenario.Spec {
	s := opt.topoSpec(fmt.Sprintf("failover-%s-w%ds", spec, int(window.Seconds())), spec, rate, opt.windows(6))
	s.Deploy.Standby = true
	s.RecordCurves = true
	if window > 0 {
		primary := 0
		s.Chaos = []scenario.EventSpec{
			{At: scenario.Duration(failoverFaultStart), Kind: "partition", Edge: 0, Relayer: &primary},
			{At: scenario.Duration(failoverFaultStart + window), Kind: "heal", Edge: 0, Relayer: &primary},
		}
	}
	return s
}

// Render writes the latency-vs-fault-window table plus each window's
// catch-up quantiles.
func (r FailoverResult) Render(w io.Writer) {
	regions := r.Regions
	if regions == "" {
		regions = "none (uniform WAN)"
	}
	fmt.Fprintf(w, "# relayer failover on %s: regions=%s, %d rps on the faulted edge, %d seeds\n",
		r.Spec, regions, r.Rate, r.Seeds)
	fmt.Fprintf(w, "primary of edge 0 partitioned at %v for each fault window\n", r.FaultStart)
	fmt.Fprintf(w, "%-10s %-22s %-26s %-16s %-10s %-12s\n",
		"window", "completed (edge 0)", "latency mean-sec (seeds)", "downtime-sec", "takeovers", "standby-recv")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10s %-22s %-26s %-16s %-10d %-12d\n",
			row.Window, fmt.Sprintf("%.0f (n=%d)", row.Completed.Mean, row.Completed.N),
			fmt.Sprintf("%.1f [%.1f..%.1f]", row.Latency.Mean, row.Latency.Min, row.Latency.Max),
			fmt.Sprintf("%.1f", row.Downtime.Mean), row.Takeovers, row.StandbyRecv)
	}
	for _, row := range r.Rows {
		if row.Backlog.Len() == 0 {
			continue
		}
		c := row.Backlog.Samples
		q := func(f float64) time.Duration { return c[int(f*float64(len(c)-1))] }
		fmt.Fprintf(w, "backlog cleared (window %v): q25=%v q50=%v q75=%v last=%v\n",
			row.Window, q(0.25).Round(time.Second), q(0.5).Round(time.Second),
			q(0.75).Round(time.Second), c[len(c)-1].Round(time.Second))
	}
	fmt.Fprintln(w) // the blank line that ends a sweep section
}
