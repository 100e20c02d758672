// Command ibcbench is the performance-analysis tool of the paper: it
// deploys the simulated multi-chain testbed, runs the benchmark
// workloads and scenario specs, and prints execution reports for every
// table and figure of the evaluation section.
//
// Usage:
//
//	ibcbench <subcommand> [flags]
//
//	ibcbench sweep -experiment all           # every experiment (slow)
//	ibcbench sweep -experiment fig8 -seeds 5 # one artifact
//	ibcbench sweep -experiment topo -topology hub:4 -rate 20
//	ibcbench run -scenario spec.json         # one declarative scenario
//	ibcbench run -name failover              # a built-in scenario
//	ibcbench run -name hub -trace trace.json # the same run, traced (Perfetto)
//	ibcbench suite -short                    # smoke the short built-in scenarios
//	ibcbench suite -lint                     # built-in specs' round-trip lint
//	ibcbench search -scenario spec.json -budget 32  # seeded chaos search
//	ibcbench trace -validate trace.json      # structural check of a trace file
//	ibcbench trace -analyze trace.json -top 30      # flame/critical path
//	ibcbench diff old.json new.json -fail-on-change 10
//	ibcbench bench2json bench.txt -out BENCH.json
//	ibcbench serve -store runs/ -addr :8321  # HTTP dashboard over a store
//
// sweep, suite and search fan their independent runs out over a pool of
// GOMAXPROCS workers; results are identical to serial runs
// (GOMAXPROCS=1).
// With -out, every experiment that ran dumps its result structs — plus
// a config header (topology, region preset, netem config, seed) — to
// one JSON document for cross-PR regression tracking of reproduced
// figures; `ibcbench diff` compares two such documents metric by metric
// and warns when their config headers disagree.
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"ibcbench/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// subcommands maps each subcommand to its driver, in help order.
var subcommands = []struct {
	name string
	desc string
	run  func(args []string, w io.Writer) error
}{
	{"run", "execute one declarative scenario spec (-scenario FILE | -name NAME) and check its assertions; -trace FILE records the run's Chrome trace", runScenarioCmd},
	{"sweep", "run the paper's experiments (-experiment NAME|all)", runSweep},
	{"search", "seeded chaos search over a spec's declared fault space; shrinks violations to a minimal replay", runSearchCmd},
	{"suite", "run every catalogue entry (figures at sweep's defaults), or -lint the built-in specs, and report verdicts", runSuiteCmd},
	{"trace", "validate (-validate FILE) or analyze (-analyze FILE [-top N]) a trace file recorded by `run -trace`", runTraceCmd},
	{"diff", "compare two result documents metric by metric (old.json new.json [-fail-on-change pct])", runDiffCmd},
	{"serve", "HTTP dashboard + ingest API over an experiment store", runServe},
	{"bench2json", "convert `go test -bench` output to a JSON metrics document", runBench2JSONCmd},
}

func run(args []string) error {
	if len(args) == 0 {
		printUsage(os.Stderr)
		return fmt.Errorf("ibcbench: no subcommand given")
	}
	name, rest := args[0], args[1:]
	switch name {
	case "help", "-h", "-help", "--help":
		printUsage(os.Stdout)
		return nil
	}
	for _, sc := range subcommands {
		if sc.name == name {
			return sc.run(rest, os.Stdout)
		}
	}
	if strings.HasPrefix(name, "-") {
		return fmt.Errorf("ibcbench: flags follow a subcommand, got %q first (see `ibcbench help`)", name)
	}
	return fmt.Errorf("ibcbench: unknown subcommand %q (see `ibcbench help`)", name)
}

func printUsage(w io.Writer) {
	fmt.Fprintln(w, "usage: ibcbench <subcommand> [flags]")
	fmt.Fprintln(w, "\nsubcommands (each accepts -h for its flags):")
	for _, sc := range subcommands {
		fmt.Fprintf(w, "  %-11s %s\n", sc.name, sc.desc)
	}
	fmt.Fprintln(w, "\nsweep, suite and search run on GOMAXPROCS workers; GOMAXPROCS=1 runs them\nserially, with the same output.")
	fmt.Fprintln(w, "\ncatalogue (ibcbench suite runs every entry; * = in `suite -short`):")
	for _, e := range experiments.Catalogue() {
		kind, mark := "figure", " "
		if e.Spec != nil {
			kind = "scenario"
			if e.Short {
				mark = "*"
			}
		}
		fmt.Fprintf(w, "  %-8s %s%-13s %s\n", kind, mark, e.Name, e.Desc)
	}
	fmt.Fprintf(w, "a figure runs with `sweep -experiment X`, X one of %s|all;\n", strings.Join(experiments.Selectors(), "|"))
	fmt.Fprintln(w, "a scenario with `run -name X` or `search -name X`.")
}
