package experiments

import (
	"fmt"
	"io"

	"ibcbench/internal/metrics"
	"ibcbench/internal/scenario"
)

// DefaultVoteScaleSizes is the swept validator-set range. The paper fixes
// five validators per chain; votes travel unsigned and only a commit's
// precommits are signed (O(V) signatures per block, no vote verified
// inside a chain), so larger sets are affordable and set size becomes an
// experiment axis like topology, regions and fault windows.
var DefaultVoteScaleSizes = []int{4, 8, 12, 16, 24, 32}

// VoteScalePoint summarizes one validator-set size across seeds.
type VoteScalePoint struct {
	Validators int
	// BlocksPerSec is the chains' aggregate block production per virtual
	// second (constant across V: consensus timing is virtual, so any
	// drift here would indicate the engine changed protocol behaviour).
	BlocksPerSec metrics.Dist
	// Latency is the per-seed mean end-to-end transfer completion latency
	// (seconds) over every edge.
	Latency metrics.Dist
	// Completed is the aggregate completed-transfer distribution.
	Completed metrics.Dist
}

// VoteScaleResult is the validator-scaling experiment.
type VoteScaleResult struct {
	Spec  string
	Rate  int
	Seeds int
	Rows  []VoteScalePoint
}

// VoteScale sweeps the validator-set size on one topology: every chain
// runs V validators, every edge sustains `rate` requests/second, and each
// (V, seed) cell records block production and end-to-end transfer
// latency. The host cost against V is BenchmarkVoteFanout's to measure.
func VoteScale(opt Options, spec string, rate int, sizes []int) (VoteScaleResult, error) {
	if rate <= 0 {
		return VoteScaleResult{}, fmt.Errorf("experiments: votescale needs a per-edge rate >= 1 (got %d)", rate)
	}
	if len(sizes) == 0 {
		sizes = DefaultVoteScaleSizes
	}
	specs := make([]scenario.Spec, len(sizes))
	for i, v := range sizes {
		if v < 4 {
			return VoteScaleResult{}, fmt.Errorf("experiments: votescale needs >= 4 validators for BFT quorums (got %d)", v)
		}
		specs[i] = voteScaleSpec(opt, spec, rate, v)
	}
	seedOf := func(v, i int) int64 { return int64(700*(v+1) + i) }
	perSize, err := specGrid(opt, "votescale "+spec, specs, seedOf, result)
	if err != nil {
		return VoteScaleResult{}, err
	}
	out := VoteScaleResult{Spec: spec, Rate: rate, Seeds: opt.seeds()}
	for i, runs := range perSize {
		row := VoteScalePoint{Validators: sizes[i]}
		var bps, latency, completed []float64
		for _, res := range runs {
			bps = append(bps, res.BlocksPerSec)
			completed = append(completed, float64(res.Total[metrics.StatusCompleted]))
			var sum float64
			var n int
			for _, e := range res.Edges {
				if e.Latency.N > 0 {
					sum += e.Latency.Mean * float64(e.Latency.N)
					n += e.Latency.N
				}
			}
			if n > 0 {
				latency = append(latency, sum/float64(n))
			}
		}
		row.BlocksPerSec = metrics.Summarize(bps)
		row.Latency = metrics.Summarize(latency)
		row.Completed = metrics.Summarize(completed)
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// voteScaleSpec is one set size's scenario: every chain runs v
// validators and every edge sustains rate requests/second.
func voteScaleSpec(opt Options, spec string, rate, v int) scenario.Spec {
	s := opt.topoSpec(fmt.Sprintf("votescale-%s-v%d", spec, v), spec, rate, opt.windows(4))
	s.Deploy.Validators = v
	return s
}

// Render writes the validator-scaling table.
func (r VoteScaleResult) Render(w io.Writer) {
	fmt.Fprintf(w, "# votescale on %s: %d rps per edge, %d seeds\n", r.Spec, r.Rate, r.Seeds)
	fmt.Fprintf(w, "%-12s %-12s %-26s %s\n",
		"validators", "blocks/s", "latency mean-sec (seeds)", "completed")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12d %-12.3f %-26s %s\n",
			row.Validators, row.BlocksPerSec.Mean,
			fmt.Sprintf("%.1f [%.1f..%.1f]", row.Latency.Mean, row.Latency.Min, row.Latency.Max),
			fmt.Sprintf("%.0f (n=%d)", row.Completed.Mean, row.Completed.N))
	}
	fmt.Fprintln(w) // the blank line that ends a sweep section
}
