// Trace export, validation, and analysis: `trace -out` runs one
// instrumented scenario and writes a Chrome trace-event file (load it at
// ui.perfetto.dev or chrome://tracing), `-summary` prints the top
// spans by total/self time per subsystem (-top caps the table),
// `-validate` structurally checks an exported file (the CI smoke
// step runs it against a short hub run), and `-analyze` runs the
// traceview flame/critical-path analytics over an exported file.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"ibcbench/internal/experiments"
	"ibcbench/internal/netem"
	"ibcbench/internal/obs"
	"ibcbench/internal/topo"
	"ibcbench/internal/tracecheck"
	"ibcbench/internal/traceview"
)

// runTraceCmd is the trace subcommand, covering all four trace modes:
//
//	ibcbench trace -out trace.json -topology hub:3 [-summary] [-store DIR]
//	ibcbench trace -summary -topology hub:3     # tables only, no file
//	ibcbench trace -validate trace.json         # structural check
//	ibcbench trace -analyze trace.json -top 30  # flame + critical path
func runTraceCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ibcbench trace", flag.ContinueOnError)
	var (
		outPath    = fs.String("out", "", "write the instrumented run's Chrome trace-event file (Perfetto-loadable) here")
		summary    = fs.Bool("summary", false, "print the top spans by total/self time per subsystem")
		checkPath  = fs.String("validate", "", "structurally validate this exported trace file and exit")
		anaPath    = fs.String("analyze", "", "analyze this exported trace file (flame tree + critical-path tables) and exit")
		topN       = fs.Int("top", 20, "row cap for -summary and -analyze tables (0 = unlimited)")
		topology   = fs.String("topology", "hub:4", "instrumented scenario graph: two|line:n|hub:n|mesh:n")
		rate       = fs.Int("rate", 20, "per-edge input rate (rps)")
		forwarding = fs.Bool("forwarding", false, "route multi-hop traffic through the packet-forward middleware")
		seed       = fs.Int64("seed", 42, "RNG seed of the traced run")
		windows    = fs.Int("windows", 0, "submission block windows (0 = paper default)")
		regions    = fs.String("regions", "", "geo region preset: 3wan|hubspoke:n|uniform:k (\"\" = uniform WAN)")
		storeDir   = fs.String("store", "", "archive the traced result (trace attached) into this experiment-store directory")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *checkPath != "" {
		return runValidateTrace(*checkPath, w)
	}
	if *anaPath != "" {
		return runTraceAnalyze(*anaPath, *topN, w)
	}
	if *outPath == "" && !*summary && *storeDir == "" {
		return fmt.Errorf("usage: ibcbench trace -out trace.json|-summary|-validate FILE|-analyze FILE [flags]")
	}
	opt := experiments.Options{Seeds: 1, Windows: *windows, Regions: *regions}
	cfg := map[string]any{
		"experiment": "trace", "seeds": 1, "windows": *windows,
		"transfers": 0, "seed": *seed, "topology": *topology,
		"rate": *rate, "regions": *regions, "forwarding": *forwarding,
		"validators": "", "parallel": 0,
		"netem": netem.DefaultWAN(),
	}
	return runTrace(opt, *topology, *rate, *forwarding, *seed, *outPath, *summary, *topN, *storeDir, cfg, w)
}

// runTrace executes one seed of the topo scenario with observability
// attached, optionally writes the Chrome trace and/or prints the span
// summary, and renders the run result like a plain topo run would.
// With storeDir the result is archived (provenance-stamped) with the
// trace attached, validated and badged exactly like a server-side
// ingest.
func runTrace(opt experiments.Options, topology string, rate int, forwarded bool,
	seed int64, tracePath string, summary bool, top int, storeDir string, cfg map[string]any, w io.Writer) error {
	sc, err := experiments.BuildTopologyScenario(opt, topology, rate, forwarded)
	if err != nil {
		return err
	}
	o := obs.New()
	sc.Deploy.Obs = o
	res, err := sc.Run(seed)
	if err != nil {
		return err
	}
	res.Render(w)
	var trace bytes.Buffer
	if tracePath != "" || storeDir != "" {
		if err := o.Tracer.WriteChrome(&trace); err != nil {
			return fmt.Errorf("export trace: %w", err)
		}
	}
	if tracePath != "" {
		if err := os.WriteFile(tracePath, trace.Bytes(), 0o644); err != nil {
			return fmt.Errorf("write %s: %w", tracePath, err)
		}
		fmt.Fprintf(os.Stderr, "trace (%d events) written to %s\n", o.Tracer.Len(), tracePath)
	}
	if summary {
		fmt.Fprintln(w)
		obs.WriteSummary(w, o.Tracer.Summary(), top)
	}
	if storeDir != "" {
		meta := experiments.CaptureRunMeta()
		res.Provenance = &topo.Provenance{
			Commit:    meta.Commit,
			GoVersion: meta.GoVersion,
			Time:      time.Now().UTC().Format(time.RFC3339),
		}
		payload, err := json.MarshalIndent(map[string]any{"config": cfg, "result": res}, "", "  ")
		if err != nil {
			return fmt.Errorf("marshal traced result: %w", err)
		}
		_, verr := tracecheck.Validate(trace.Bytes())
		return archiveRun(storeDir, "trace", payload, trace.Bytes(), verr == nil, os.Stderr)
	}
	return nil
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
