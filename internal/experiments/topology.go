package experiments

import (
	"fmt"
	"io"

	"ibcbench/internal/metrics"
	"ibcbench/internal/scenario"
	"ibcbench/internal/topo"
)

// TopologyResult is the multi-seed summary of one topology scenario:
// aggregate throughput and per-edge completion distributions.
type TopologyResult struct {
	Spec  string
	Rate  int
	Seeds int
	// Throughput is the aggregate TFPS distribution across seeds.
	Throughput metrics.Dist
	// EdgeCompleted holds per-edge completed-transfer distributions.
	EdgeCompleted []metrics.Dist
	// EdgeLabels names each edge ("hub~ibc-1").
	EdgeLabels []string
	// RoutesCompleted sums completed multi-hop routes across seeds.
	RoutesCompleted int
	// Sample is the first seed's full result, for detailed rendering.
	Sample *topo.Result
}

// TopologySweep benchmarks an interchain topology: every edge sustains
// `rate` requests/second for the configured windows, plus — on graphs of
// three or more chains — one multi-hop route between the two
// lowest-indexed non-adjacent leaves, run as sequential transfers or,
// when forwarded, through the packet-forward middleware. Seeds run
// concurrently on the parallel runner.
func TopologySweep(opt Options, spec string, rate int, forwarded bool) (TopologyResult, error) {
	tp, err := topo.ParseSpec(spec)
	if err != nil {
		return TopologyResult{}, err
	}
	if rate <= 0 {
		return TopologyResult{}, fmt.Errorf("experiments: topology sweep needs a per-edge rate >= 1 (got %d)", rate)
	}
	sc, err := scenario.Compile(topologySpec(opt, tp, spec, rate, forwarded))
	if err != nil {
		return TopologyResult{}, err
	}
	seedOf := func(_, i int) int64 { return int64(100*rate + i) }
	runs, err := grid(opt, "topo "+spec, 1, seedOf, func(_ int, seed int64) (*topo.Result, error) {
		return sc.Run(seed)
	})
	if err != nil {
		return TopologyResult{}, err
	}
	out := TopologyResult{Spec: spec, Rate: rate, Seeds: opt.seeds(), Sample: runs[0][0]}
	var tputs []float64
	perEdge := make([][]float64, len(sc.Topology.Edges))
	for _, res := range runs[0] {
		tputs = append(tputs, res.Throughput)
		out.RoutesCompleted += res.RoutesCompleted
		for i, e := range res.Edges {
			perEdge[i] = append(perEdge[i], float64(e.Completion[metrics.StatusCompleted]))
		}
	}
	out.Throughput = metrics.Summarize(tputs)
	for i, samples := range perEdge {
		out.EdgeCompleted = append(out.EdgeCompleted, metrics.Summarize(samples))
		out.EdgeLabels = append(out.EdgeLabels,
			out.Sample.Edges[i].From+"~"+out.Sample.Edges[i].To)
	}
	return out, nil
}

// topologySpec is the sweep's scenario: uniform per-edge load plus the
// demo multi-hop route on graphs that have one.
func topologySpec(opt Options, tp topo.Topology, spec string, rate int, forwarded bool) scenario.Spec {
	s := opt.topoSpec(spec, spec, rate, opt.windows(10))
	if route := demoRoute(tp); route != nil {
		s.Workload.Routes = []scenario.RouteSpec{{Path: route, Transfers: rate, Forwarded: forwarded}}
	}
	return s
}

// demoRoute picks a representative multi-hop path: the two
// lowest-indexed chains that do not share an edge, via BFS. Nil when
// every pair is adjacent (two-chain, mesh).
func demoRoute(tp topo.Topology) []int {
	for a := 0; a < len(tp.Chains); a++ {
		for b := a + 1; b < len(tp.Chains); b++ {
			if _, adjacent := tp.EdgeBetween(a, b); adjacent {
				continue
			}
			if path, err := tp.Route(a, b); err == nil {
				return path
			}
		}
	}
	return nil
}

// Render writes the sweep summary.
func (r TopologyResult) Render(w io.Writer) {
	fmt.Fprintf(w, "# topology %s: %d rps per edge, %d seeds\n", r.Spec, r.Rate, r.Seeds)
	fmt.Fprintf(w, "aggregate TFPS: %s\n", r.Throughput)
	fmt.Fprintf(w, "%-6s %-16s %-40s\n", "edge", "link", "completed (dist over seeds)")
	for i, d := range r.EdgeCompleted {
		fmt.Fprintf(w, "%-6d %-16s %s\n", i, r.EdgeLabels[i], d)
	}
	if r.RoutesCompleted > 0 {
		fmt.Fprintf(w, "multi-hop routes completed: %d across seeds\n", r.RoutesCompleted)
	}
	if r.Sample != nil {
		fmt.Fprintf(w, "--- sample run (seed %d) ---\n", r.Sample.Seed)
		r.Sample.Render(w)
	}
}
