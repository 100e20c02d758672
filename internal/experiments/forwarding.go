package experiments

import (
	"fmt"
	"io"

	"ibcbench/internal/metrics"
	"ibcbench/internal/scenario"
	"ibcbench/internal/topo"
)

// ForwardingRow compares the two multi-hop route modes at one hop count.
type ForwardingRow struct {
	Hops int
	Path []int
	// Sequential/Forwarded are mean end-to-end route latencies across
	// seeds (transfer broadcast to origin settlement).
	Sequential metrics.Dist
	Forwarded  metrics.Dist
	// Speedup is mean sequential latency over mean forwarded latency.
	Speedup float64
	// Completed counts fully settled routes across seeds (per mode).
	SeqCompleted, FwdCompleted int
}

// ForwardingResult is the latency-vs-hops comparison of sequential legs
// against packet-forward middleware on one topology.
type ForwardingResult struct {
	Spec      string
	Transfers int
	Seeds     int
	Rows      []ForwardingRow
}

// ForwardingComparison runs, for every achievable hop count on the
// topology, ONE scenario carrying the same route twice — once as
// sequential legs, once in Forwarded mode — so both sides of the
// latency-vs-hops curve come from the same execution. Hub topologies
// exercise the paper's hub scenario (spoke -> hub -> spoke); line
// topologies extend the curve to deeper nestings.
func ForwardingComparison(opt Options, spec string, transfers int) (ForwardingResult, error) {
	tp, err := topo.ParseSpec(spec)
	if err != nil {
		return ForwardingResult{}, err
	}
	if transfers <= 0 {
		transfers = 5
	}
	paths := hopPaths(tp)
	if len(paths) == 0 {
		return ForwardingResult{}, fmt.Errorf("experiments: no routes on %s", spec)
	}
	specs := make([]scenario.Spec, len(paths))
	for h, path := range paths {
		specs[h] = forwardingSpec(opt, spec, path, transfers)
	}
	seedOf := func(h, i int) int64 { return int64(1000*(h+1) + i) }
	perHop, err := specGrid(opt, "forwarding "+spec, specs, seedOf)
	if err != nil {
		return ForwardingResult{}, err
	}
	out := ForwardingResult{Spec: spec, Transfers: transfers, Seeds: opt.seeds()}
	for h, path := range paths {
		row := ForwardingRow{Hops: len(path) - 1, Path: path}
		var seqLat, fwdLat []float64
		for _, res := range perHop[h] {
			if seq := res.Routes[0]; seq.Completed {
				row.SeqCompleted++
				seqLat = append(seqLat, seq.Latency.Seconds())
			}
			if fwd := res.Routes[1]; fwd.Completed {
				row.FwdCompleted++
				fwdLat = append(fwdLat, fwd.Latency.Seconds())
			}
		}
		row.Sequential = metrics.Summarize(seqLat)
		row.Forwarded = metrics.Summarize(fwdLat)
		if row.Forwarded.Mean > 0 {
			row.Speedup = row.Sequential.Mean / row.Forwarded.Mean
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// forwardingSpec is one hop count's scenario: the same route in both
// modes and no other traffic. No region preset: the comparison runs on
// the paper's uniform WAN.
func forwardingSpec(opt Options, spec string, path []int, transfers int) scenario.Spec {
	return scenario.Spec{
		Name:     fmt.Sprintf("%s-hops%d", spec, len(path)-1),
		Topology: scenario.TopologySpec{Preset: spec},
		Deploy:   scenario.DeploySpec{Validators: opt.Validators, ParallelWorkers: opt.Parallel},
		Workload: scenario.WorkloadSpec{Routes: []scenario.RouteSpec{
			{Path: path, Transfers: transfers},
			{Path: path, Transfers: transfers, Forwarded: true},
		}},
	}
}

// hopPaths picks one representative path per achievable hop count,
// shortest-first: hop count 1 is the first edge; deeper counts come from
// BFS shortest paths between increasingly distant node pairs.
func hopPaths(tp topo.Topology) [][]int {
	byHops := map[int][]int{}
	maxHops := 0
	for a := 0; a < len(tp.Chains); a++ {
		for b := a + 1; b < len(tp.Chains); b++ {
			path, err := tp.Route(a, b)
			if err != nil {
				continue
			}
			hops := len(path) - 1
			if _, seen := byHops[hops]; !seen {
				byHops[hops] = path
				if hops > maxHops {
					maxHops = hops
				}
			}
		}
	}
	var out [][]int
	for h := 1; h <= maxHops; h++ {
		if p, ok := byHops[h]; ok {
			out = append(out, p)
		}
	}
	return out
}

// Render writes the comparison as a latency-vs-hops table.
func (r ForwardingResult) Render(w io.Writer) {
	fmt.Fprintf(w, "# forwarding vs sequential on %s: %d transfers/route, %d seeds\n",
		r.Spec, r.Transfers, r.Seeds)
	fmt.Fprintf(w, "%-6s %-14s %-16s %-16s %-8s %-12s\n",
		"hops", "path", "sequential", "forwarded", "speedup", "completed")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-6d %-14s %-16s %-16s %-8.2f %d/%d\n",
			row.Hops, fmt.Sprint(row.Path),
			fmtMeanSec(row.Sequential), fmtMeanSec(row.Forwarded),
			row.Speedup, row.SeqCompleted, row.FwdCompleted)
	}
}

func fmtMeanSec(d metrics.Dist) string {
	return fmt.Sprintf("%.1fs (n=%d)", d.Mean, d.N)
}
