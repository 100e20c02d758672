package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"ibcbench/internal/metrics"
	"ibcbench/internal/scenario"
)

// DefaultMeshScaleChains is the swept mesh width. The conservative
// parallel runner's speedup grows with the number of chain partitions,
// so chain count is the primary axis; two chains is the break-even
// floor, eight is where near-linear scaling should show.
var DefaultMeshScaleChains = []int{2, 4, 8}

// DefaultMeshScaleValidators sweeps per-chain consensus weight: more
// validators means more intra-partition work per synchronization
// window, which favours the parallel runner.
var DefaultMeshScaleValidators = []int{4, 8}

// MeshScalePoint is one (chains, validators, rate) cell of the grid.
type MeshScalePoint struct {
	Chains     int
	Validators int
	Rate       int
	// SerialWallSec / ParallelWallSec are summed host wall-clock across
	// seeds for the two runner modes on identical scenarios.
	SerialWallSec   float64
	ParallelWallSec float64
	// Speedup is SerialWallSec / ParallelWallSec.
	Speedup float64
	// FingerprintEqual reports whether every seed's marshalled
	// topo.Result was byte-identical between the serial scheduler and
	// the partitioned runner — the tentpole's correctness contract.
	FingerprintEqual bool
	// Completed is the completed-transfer distribution across seeds
	// (identical in both modes whenever FingerprintEqual holds).
	Completed metrics.Dist
}

// MeshScaleResult is the serial-vs-parallel scaling experiment.
type MeshScaleResult struct {
	Workers int
	Seeds   int
	Windows int
	Rows    []MeshScalePoint
}

// MeshScale runs every (chains, validators, rate) cell of a full-mesh
// grid twice — once on the serial scheduler, once on the partitioned
// runner with `workers` OS workers — and reports wall-clock speedup
// plus result-fingerprint equality. Cells execute sequentially and
// uncontended: the parallel runner's own worker pool is the thing being
// timed, so an outer sweep pool would corrupt the curve.
func MeshScale(opt Options, chains []int, workers int) (MeshScaleResult, error) {
	if len(chains) == 0 {
		chains = DefaultMeshScaleChains
	}
	for _, n := range chains {
		if n < 2 {
			return MeshScaleResult{}, fmt.Errorf("experiments: meshscale needs >= 2 chains per cell (got %d)", n)
		}
	}
	if workers < 2 {
		workers = 2
	}
	validators := DefaultMeshScaleValidators
	if opt.Validators > 0 {
		validators = []int{opt.Validators}
	}
	rates := opt.Rates
	if len(rates) == 0 {
		rates = []int{2}
	}
	windows := opt.windows(2)
	out := MeshScaleResult{Workers: workers, Seeds: opt.seeds(), Windows: windows}

	run := func(n, vals, rate, w int, seed int64) ([]byte, float64, float64, error) {
		sc, err := scenario.Compile(scenario.Spec{
			Name:     fmt.Sprintf("meshscale-%dx%d-r%d", n, vals, rate),
			Topology: scenario.TopologySpec{Preset: fmt.Sprintf("mesh:%d", n)},
			Deploy:   scenario.DeploySpec{Validators: vals, ParallelWorkers: w},
			Workload: scenario.WorkloadSpec{Rate: rate, Windows: windows},
		})
		if err != nil {
			return nil, 0, 0, err
		}
		start := time.Now()
		res, err := sc.Run(seed)
		if err != nil {
			return nil, 0, 0, err
		}
		wall := time.Since(start).Seconds()
		fp, err := json.Marshal(res)
		if err != nil {
			return nil, 0, 0, err
		}
		return fp, wall, float64(res.Total[metrics.StatusCompleted]), nil
	}

	for _, n := range chains {
		for _, vals := range validators {
			for _, rate := range rates {
				row := MeshScalePoint{Chains: n, Validators: vals, Rate: rate, FingerprintEqual: true}
				var completed []float64
				for s := 0; s < opt.seeds(); s++ {
					seed := int64(900*(n+1) + 37*vals + s)
					serialFP, serialWall, done, err := run(n, vals, rate, 1, seed)
					if err != nil {
						return MeshScaleResult{}, fmt.Errorf("experiments: meshscale %d-chain serial: %w", n, err)
					}
					parFP, parWall, _, err := run(n, vals, rate, workers, seed)
					if err != nil {
						return MeshScaleResult{}, fmt.Errorf("experiments: meshscale %d-chain parallel: %w", n, err)
					}
					if !bytes.Equal(serialFP, parFP) {
						row.FingerprintEqual = false
					}
					row.SerialWallSec += serialWall
					row.ParallelWallSec += parWall
					completed = append(completed, done)
				}
				if row.ParallelWallSec > 0 {
					row.Speedup = row.SerialWallSec / row.ParallelWallSec
				}
				row.Completed = metrics.Summarize(completed)
				out.Rows = append(out.Rows, row)
			}
		}
	}
	return out, nil
}

// Render writes the serial-vs-parallel scaling table.
func (r MeshScaleResult) Render(w io.Writer) {
	fmt.Fprintf(w, "# meshscale: %d workers, %d seeds, %d windows\n", r.Workers, r.Seeds, r.Windows)
	fmt.Fprintf(w, "%-8s %-12s %-6s %-14s %-14s %-9s %-12s %-12s\n",
		"chains", "validators", "rate", "serial-sec", "parallel-sec", "speedup", "identical", "completed")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8d %-12d %-6d %-14.2f %-14.2f %-9.2f %-12v %-12s\n",
			row.Chains, row.Validators, row.Rate,
			row.SerialWallSec, row.ParallelWallSec, row.Speedup, row.FingerprintEqual,
			fmt.Sprintf("%.0f (n=%d)", row.Completed.Mean, row.Completed.N))
	}
}
