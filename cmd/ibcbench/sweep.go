// The sweep driver: the paper's experiment suite behind one flag set.
// The config header and the stdout rendering are compared across
// revisions (the VIRT regression gate diffs -out documents), so both
// must stay byte-stable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"ibcbench/internal/experiments"
	"ibcbench/internal/netem"
)

// runSweep executes the selected experiments:
//
//	ibcbench sweep -experiment topo -topology hub:4 -rate 20 [...]
func runSweep(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ibcbench sweep", flag.ContinueOnError)
	var (
		exp        = fs.String("experiment", "all", strings.Join(experiments.Selectors(), "|")+"|all")
		seeds      = fs.Int("seeds", 3, "executions per configuration (paper: 20)")
		windows    = fs.Int("windows", 0, "submission block windows (0 = paper default)")
		transfers  = fs.Int("transfers", 5000, "transfers for fig12/fig13")
		seed       = fs.Int64("seed", 42, "base RNG seed")
		topology   = fs.String("topology", "hub:4", "topo/forward/failover experiment graph: two|line:n|hub:n|mesh:n")
		rate       = fs.Int("rate", 20, "per-edge input rate (rps) for topo/failover; transfers per route for forward")
		regions    = fs.String("regions", "", "geo region preset for topo/failover deployments: 3wan|hubspoke:n|uniform:k (\"\" = the paper's uniform WAN)")
		validators = fs.String("validators", "", "validator-set sizes: votescale sweeps the comma list (default 4,8,12,16,24,32); other topology experiments use the first value (\"\" = the paper's 5)")
		forwarding = fs.Bool("forwarding", false, "run topo multi-hop routes through the packet-forward middleware instead of sequential legs")
		workers    = fs.Int("workers", 0, "sweep worker pool size (0 = all cores, 1 = serial)")
		parallel   = fs.Int("parallel", 0, "intra-run partitioned workers: split each simulation's chains over N OS workers with byte-identical results (0/1 = serial scheduler); also the worker count of -experiment meshscale")
		out        = fs.String("out", "", "write every experiment's result as JSON to this file (cross-PR regression tracking)")
		storeDir   = fs.String("store", "", "archive the result document (the -out payload) into this experiment-store directory; browse it with `ibcbench serve -store DIR`")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the experiment run to this file (go tool pprof)")
		memProfile = fs.String("memprofile", "", "write a heap profile taken after the experiment run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	valSizes, err := parseValidatorList(*validators)
	if err != nil {
		return err
	}
	opt := experiments.Options{Seeds: *seeds, Windows: *windows, Workers: *workers, Regions: *regions, Parallel: *parallel}
	if len(valSizes) > 0 {
		opt.Validators = valSizes[0]
	}
	// Profiling brackets everything from here on — the simulation work.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(os.Stderr, "cpu profile written to %s\n", *cpuProfile)
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained allocations
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			fmt.Fprintf(os.Stderr, "heap profile written to %s\n", *memProfile)
		}()
	}
	selected, err := experiments.Select(*exp)
	if err != nil {
		return err
	}
	keep := *out != "" || *storeDir != ""
	report := map[string]any{}
	record := func(key string, v any) {
		if keep {
			report[key] = v
		}
	}
	ctx := experiments.RunContext{
		Opt:        opt,
		Seed:       *seed,
		Transfers:  *transfers,
		Topology:   *topology,
		Rate:       *rate,
		Forwarding: *forwarding,
		Validators: valSizes,
		Parallel:   *parallel,
		Out:        w,
		Record:     record,
	}
	for _, e := range selected {
		if err := e.Run(ctx); err != nil {
			return err
		}
	}
	if keep {
		// The config header identifies what produced a result document;
		// `ibcbench diff` warns field by field when comparing results whose
		// headers disagree, and the store's trend/regression analysis treats
		// runs with differing headers as incompatible trajectories.
		report["config"] = map[string]any{
			"experiment": *exp, "seeds": *seeds, "windows": *windows,
			"transfers": *transfers, "seed": *seed, "topology": *topology,
			"rate": *rate, "regions": *regions, "forwarding": *forwarding,
			"validators": *validators, "parallel": *parallel,
			"netem": netem.DefaultWAN(),
		}
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return fmt.Errorf("marshal results: %w", err)
		}
		data = append(data, '\n')
		if *out != "" {
			if err := os.WriteFile(*out, data, 0o644); err != nil {
				return fmt.Errorf("write %s: %w", *out, err)
			}
			fmt.Fprintf(os.Stderr, "results written to %s\n", *out)
		}
		if *storeDir != "" {
			if err := archiveRun(*storeDir, "experiment", data, nil, os.Stderr); err != nil {
				return err
			}
		}
	}
	return nil
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
