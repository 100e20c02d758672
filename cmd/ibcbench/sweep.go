// The sweep driver: the paper's experiment suite behind one flag set.
// The config header and the stdout rendering are compared across
// revisions (the VIRT regression gate diffs -out documents), so both
// must stay byte-stable.
package main

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ibcbench/internal/experiments"
	"ibcbench/internal/netem"
)

// runSweep executes the selected experiments, then prints the fidelity
// report of the figures it ran:
//
//	ibcbench sweep -experiment topo -topology hub:4 -rate 20 [...]
func runSweep(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ibcbench sweep", flag.ContinueOnError)
	def := experiments.Defaults
	var (
		exp        = fs.String("experiment", "all", strings.Join(experiments.Selectors(), "|")+"|all")
		seeds      = fs.Int("seeds", def.Seeds, "executions per configuration (paper: 20)")
		windows    = fs.Int("windows", def.Windows, "submission block windows (0 = paper default)")
		transfers  = fs.Int("transfers", def.Transfers, "transfers for fig12/fig13")
		seed       = fs.Int64("seed", def.Seed, "base RNG seed")
		topology   = fs.String("topology", def.Topology, "topo/forward/failover experiment graph: two|line:n|hub:n|mesh:n")
		rate       = fs.Int("rate", def.Rate, "per-edge input rate (rps) for topo/failover; transfers per route for forward")
		regions    = fs.String("regions", def.Regions, "geo region preset for topo/failover deployments: 3wan or lan (\"\" = the paper's uniform WAN)")
		validators = fs.String("validators", "", "validator-set sizes: votescale sweeps the comma list (default 4,8,12,16,24,32); other topology experiments use the first value (\"\" = the paper's 5)")
		forwarding = fs.Bool("forwarding", def.Forwarding, "run topo multi-hop routes through the packet-forward middleware instead of sequential legs")
		out        = fs.String("out", "", "write every experiment's result as JSON to this file (cross-PR regression tracking)")
		storeDir   = fs.String("store", "", "archive the result document (the -out payload) into this experiment-store directory; browse it with `ibcbench serve -store DIR`")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// An out-of-range count is refused, never swapped for a default the
	// -out header would misreport. -windows 0 is the paper default; a
	// seed is at least 1, since a spec's seed 0 means its default seed.
	for _, f := range []struct {
		name     string
		val, min int64
	}{{"transfers", int64(*transfers), 1}, {"seeds", int64(*seeds), 1}, {"windows", int64(*windows), 0}, {"rate", int64(*rate), 1}, {"seed", *seed, 1}} {
		if f.val < f.min {
			return fmt.Errorf("ibcbench: -%s %d: must be at least %d", f.name, f.val, f.min)
		}
	}
	valSizes, err := parseValidatorList(*validators)
	if err != nil {
		return err
	}
	selected, err := experiments.Select(*exp)
	if err != nil {
		return err
	}
	report := map[string]any{}
	ctx := experiments.RunContext{
		Seeds:      *seeds,
		Windows:    *windows,
		Regions:    *regions,
		Validators: valSizes,
		Seed:       *seed,
		Transfers:  *transfers,
		Topology:   *topology,
		Rate:       *rate,
		Forwarding: *forwarding,
		Out:        w,
		Record:     func(key string, v any) { report[key] = v },
	}
	for _, e := range selected {
		if err := e.Run(ctx); err != nil {
			return err
		}
	}
	experiments.RenderClaims(w, experiments.Fidelity(report))
	if *out != "" || *storeDir != "" {
		// The config header identifies what produced a result document;
		// `ibcbench diff` warns field by field when comparing results whose
		// headers disagree, and the store's trend/regression analysis treats
		// runs with differing headers as incompatible trajectories.
		report["config"] = map[string]any{
			"experiment": *exp, "seeds": *seeds, "windows": *windows,
			"transfers": *transfers, "seed": *seed, "topology": *topology,
			"rate": *rate, "regions": *regions, "forwarding": *forwarding,
			"validators": *validators, "netem": netem.DefaultWAN(),
		}
	}
	return saveDoc(report, "results", *out, *storeDir, "experiment", nil)
}

// parseValidatorList parses the -validators comma list ("" = nil).
func parseValidatorList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("ibcbench: -validators %q: each entry must be a positive integer", s)
		}
		out = append(out, v)
	}
	return out, nil
}
