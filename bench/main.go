// Command bench is the repository's end-to-end and per-layer host-cost
// benchmark. It runs five pinned scenario specs through the public entry
// points (scenario.Parse, Compile, RunDeployed, Check), each repetition
// in a fresh child process of this same binary, and measures the layers
// from outside: phase spans around its own calls, exact work counts off
// the quiescent deployment, and a CPU profile bucketed by package.
//
// Three ways to run it (see README.md):
//
//	bench                                  full report over every workload
//	bench -aa                              A/A self-check of the plain reps
//	bench -workload W -seed N -seconds S -trace 0|1
//	                                       one workload, one JSON result line
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		child    = flag.Bool("child", false, "run one repetition and print its result (internal)")
		mode     = flag.String("mode", modePlain, "child repetition mode: plain, profile or obs (internal)")
		one      = flag.String("workload", "", "measure one workload and print one JSON result line")
		seed     = flag.Int64("seed", 11, "workload seed; workload i runs at seed+i")
		seconds  = flag.Float64("seconds", 15, "with -workload: how long to keep adding repetitions")
		trace    = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, 1 = per-layer metrics")
		only     = flag.String("only", "", "report mode: comma-separated workloads to run (default all)")
		outDir   = flag.String("out", ".bench_build/out", "directory for results.json and span files")
		aaSwitch = flag.Bool("aa", false, "run the plain repetitions twice and compare the two sets against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	if *child {
		data, err := specBytes(*one)
		if err != nil {
			fatal(err)
		}
		res, err := runRep(*one, data, *seed, *mode)
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatal(err)
		}
		return
	}

	// A cancelled context kills the running child, so an interrupted
	// benchmark leaves no process behind.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	h := &harness{ctx: ctx, seed: *seed, outDir: *outDir, calibS: calibrate(), measured: map[string]*workloadResult{}}

	var ok bool
	var err error
	switch {
	case *one != "":
		ok, err = h.driverRun(*one, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	case *aaSwitch:
		ok, err = h.aaRun(selectWorkloads(*only))
	default:
		ok, err = h.reportRun(selectWorkloads(*only))
	}
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// selectWorkloads resolves -only, keeping the declared order.
func selectWorkloads(only string) []workload {
	if only == "" {
		return workloads
	}
	want := map[string]bool{}
	for _, n := range strings.Split(only, ",") {
		if _, ok := findWorkload(n); !ok {
			fatal(fmt.Errorf("unknown workload %q", n))
		}
		want[n] = true
	}
	var out []workload
	for _, w := range workloads {
		if want[w.Name] {
			out = append(out, w)
		}
	}
	return out
}
