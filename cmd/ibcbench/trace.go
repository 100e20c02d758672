// The trace file tools: a run records its own trace (`ibcbench run
// -trace FILE` writes a Chrome trace-event file, loadable at
// ui.perfetto.dev or chrome://tracing); `trace -validate` structurally
// checks such a file (the CI smoke step runs it against a short hub
// run) and `trace -analyze` runs the traceview flame/critical-path
// analytics over it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ibcbench/internal/tracecheck"
	"ibcbench/internal/traceview"
)

// runTraceCmd is the trace subcommand:
//
//	ibcbench trace -validate trace.json         # structural check
//	ibcbench trace -analyze trace.json -top 30  # flame + critical path
func runTraceCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ibcbench trace", flag.ContinueOnError)
	var (
		checkPath = fs.String("validate", "", "structurally validate this exported trace file")
		anaPath   = fs.String("analyze", "", "analyze this exported trace file (flame tree + critical-path tables)")
		topN      = fs.Int("top", 20, "row cap for the -analyze flame table (0 = unlimited)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *checkPath != "":
		return runValidateTrace(*checkPath, w)
	case *anaPath != "":
		return runTraceAnalyze(*anaPath, *topN, w)
	}
	return fmt.Errorf("usage: ibcbench trace -validate FILE | -analyze FILE [-top N] (record one with `ibcbench run ... -trace FILE`)")
}

// runTraceAnalyze runs the traceview analytics over an exported trace
// file: the aggregated flame span tree (total/self per subsystem),
// then the per-packet critical-path tables — per-step latency
// distributions grouped by edge and route hop, each step's share of
// end-to-end latency, and the explicit unattributed residual. The
// output is deterministic: same trace bytes, same tables.
func runTraceAnalyze(path string, top int, w io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	events, err := traceview.FromChrome(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintf(w, "# %s: %d event(s)\n\n", path, len(events))
	traceview.WriteFlame(w, traceview.Flame(events), top)
	fmt.Fprintln(w)
	traceview.WriteCritPath(w, traceview.CriticalPath(events))
	return nil
}

// runValidateTrace structurally validates an exported trace via
// tracecheck.Validate: the file must parse as a trace-event document,
// complete spans need non-negative timestamps and durations, and every
// async trace must open and close in order on each (cat, id) pair. The
// first violation exits nonzero with the offending event's line and
// byte offset — the exporter writes one event per line, so the line
// number points at the exact event.
func runValidateTrace(path string, w io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	stats, err := tracecheck.Validate(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintf(w, "%s: OK (%d events: %s)\n", path, stats.Events, stats.PhaseList())
	return nil
}
