// The scenario entry points: `ibcbench run` executes one declarative
// spec (a file or a built-in's name) and checks its assertions,
// `ibcbench suite` runs the whole catalogue, and `ibcbench search`
// explores a spec's declared fault space for assertion violations and
// shrinks what it finds to a minimal replay.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"ibcbench/internal/experiments"
	"ibcbench/internal/metrics"
	"ibcbench/internal/obs"
	"ibcbench/internal/scenario"
)

// loadSpec resolves the shared -scenario/-name flag pair: a spec file
// on disk or a built-in scenario of the catalogue by name, exactly one
// of the two.
func loadSpec(path, name string) (scenario.Spec, error) {
	switch {
	case path != "" && name != "":
		return scenario.Spec{}, fmt.Errorf("ibcbench: -scenario and -name are mutually exclusive")
	case path != "":
		data, err := os.ReadFile(path)
		if err != nil {
			return scenario.Spec{}, err
		}
		s, err := scenario.Parse(data)
		if err != nil {
			return scenario.Spec{}, fmt.Errorf("%s: %w", path, err)
		}
		return s, nil
	case name != "":
		return experiments.Builtin(name)
	default:
		return scenario.Spec{}, fmt.Errorf("ibcbench: need -scenario FILE or -name NAME")
	}
}

// saveDoc writes v as an indented JSON document to outPath and archives
// it into the store at storeDir, each when set; what names it.
func saveDoc(v any, what, outPath, storeDir, kind string, trace []byte) error {
	if outPath == "" && storeDir == "" {
		return nil
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal %s: %w", what, err)
	}
	data = append(data, '\n')
	if outPath != "" {
		if err := os.WriteFile(outPath, data, 0o644); err != nil {
			return fmt.Errorf("write %s: %w", outPath, err)
		}
		fmt.Fprintf(os.Stderr, "%s written to %s\n", what, outPath)
	}
	if storeDir != "" {
		return archiveRun(storeDir, kind, data, trace, os.Stderr)
	}
	return nil
}

// runScenarioCmd executes one declarative scenario:
//
//	ibcbench run -scenario spec.json [-seed N] [-out report.json] [-trace trace.json] [-store DIR]
//	ibcbench run -name failover
//	ibcbench run -name failover -print   # emit the canonical spec
//
// -trace instruments the same run and writes its Chrome trace-event
// file; with -store the trace is attached to the archived report,
// validated and badged like a server-side ingest. The process exits
// nonzero when an assertion is violated; -expect-violation inverts
// that (CI fixtures that must fail).
func runScenarioCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ibcbench run", flag.ContinueOnError)
	var (
		specPath  = fs.String("scenario", "", "scenario spec file (JSON)")
		name      = fs.String("name", "", "built-in scenario name (see `ibcbench help`)")
		seed      = fs.Int64("seed", 0, "override the spec's run seed (0 = spec seed, default 1)")
		outPath   = fs.String("out", "", "write the full report (spec, result, verdicts) as JSON to this file")
		tracePath = fs.String("trace", "", "instrument the run and write its Chrome trace-event file (Perfetto-loadable) here")
		storeDir  = fs.String("store", "", "archive the report into this experiment-store directory")
		printSpec = fs.Bool("print", false, "print the canonical spec encoding and exit without running")
		expect    = fs.Bool("expect-violation", false, "exit nonzero unless at least one assertion is violated")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := loadSpec(*specPath, *name)
	if err != nil {
		return err
	}
	if *printSpec {
		data, err := scenario.Encode(s)
		if err != nil {
			return err
		}
		_, err = w.Write(data)
		return err
	}
	var o *obs.Obs
	if *tracePath != "" {
		o = obs.New()
	}
	rep, err := scenario.Run(s, *seed, o)
	if err != nil {
		return err
	}
	rep.Render(w)
	var trace []byte
	if o != nil {
		var buf bytes.Buffer
		if err := o.Tracer.WriteChrome(&buf); err != nil {
			return fmt.Errorf("export trace: %w", err)
		}
		trace = buf.Bytes()
		if err := os.WriteFile(*tracePath, trace, 0o644); err != nil {
			return fmt.Errorf("write %s: %w", *tracePath, err)
		}
		fmt.Fprintf(os.Stderr, "trace (%d events) written to %s\n", o.Tracer.Len(), *tracePath)
	}
	if err := saveDoc(rep, "report", *outPath, *storeDir, "scenario", trace); err != nil {
		return err
	}
	switch {
	case *expect && rep.Passed():
		return fmt.Errorf("scenario %s: expected an assertion violation, all %d held", s.Name, len(rep.Assertions))
	case !*expect && !rep.Passed():
		return fmt.Errorf("scenario %s: %d assertion violation(s)", s.Name, len(rep.Violations))
	}
	return nil
}

// runSuiteCmd runs every catalogue entry, each figure at the sweep's
// defaults, and reports one verdict line each, then the fidelity report
// of the figures, a failing row of which fails the suite too:
//
//	ibcbench suite [-short] [-seed N]
//	ibcbench suite -lint     # round-trip/compile lint of the built-in specs, no runs
func runSuiteCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ibcbench suite", flag.ContinueOnError)
	var (
		short = fs.Bool("short", false, "run only the built-in scenarios marked cheap enough for smoke suites")
		lint  = fs.Bool("lint", false, "lint every built-in spec (validate, compile, canonical round trip) without running anything")
		seed  = fs.Int64("seed", 0, "override every run's seed (0 = each built-in spec's own, and the sweep's default for the figures)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var entries []experiments.Entry
	for _, e := range experiments.Catalogue() {
		if (*lint && e.Spec == nil) || (*short && !e.Short) {
			continue
		}
		entries = append(entries, e)
	}
	if *lint {
		failed := 0
		for _, e := range entries {
			if err := e.Lint(); err != nil {
				failed++
				fmt.Fprintf(w, "lint %s: %v\n", e.Name, err)
				continue
			}
			fmt.Fprintf(w, "lint %s: ok\n", e.Name)
		}
		if failed > 0 {
			return fmt.Errorf("suite: %d of %d scenario(s) failed lint", failed, len(entries))
		}
		fmt.Fprintf(w, "suite: %d scenario(s) lint clean\n", len(entries))
		return nil
	}
	type verdict struct {
		rep *scenario.Report // a built-in's; a figure records no report
		err error
	}
	figures := map[string]any{}
	run := func(e experiments.Entry) (v verdict) {
		// A built-in's seed 0 is its spec's own; a figure keeps the
		// sweep's default base seed unless -seed is given.
		ctx := experiments.Defaults
		if e.Spec != nil || *seed != 0 {
			ctx.Seed = *seed
		}
		ctx.Out = io.Discard
		ctx.Record = func(name string, res any) {
			if v.rep, _ = res.(*scenario.Report); e.Spec == nil {
				figures[name] = res // the figures run one at a time
			}
		}
		v.err = e.Run(ctx)
		return v
	}
	// The built-ins run side by side. A figure runs its own cells side by
	// side, so the figures run one after another.
	verdicts := make([]verdict, len(entries))
	var builtins []int
	for i, e := range entries {
		if e.Spec == nil {
			verdicts[i] = run(e)
		} else {
			builtins = append(builtins, i)
		}
	}
	for j, v := range scenario.ParallelMap(builtins, func(i int) verdict { return run(entries[i]) }) {
		verdicts[builtins[j]] = v
	}
	failed := 0
	for i, v := range verdicts {
		switch name := entries[i].Name; {
		case v.err != nil:
			failed++
			fmt.Fprintf(w, "FAIL %-13s %v\n", name, v.err)
		case v.rep == nil:
			fmt.Fprintf(w, "PASS %-13s every cell's assertions held\n", name)
		default:
			done := v.rep.Result.Total[metrics.StatusCompleted] + v.rep.Result.RoutesCompleted
			fmt.Fprintf(w, "PASS %-13s %d assertion(s) held, %d transfer(s)/route(s) completed\n",
				name, len(v.rep.Assertions), done)
		}
	}
	claims := experiments.Fidelity(figures)
	if failed += experiments.RenderClaims(w, claims); failed > 0 {
		return fmt.Errorf("suite: %d of %d entries and fidelity rows failed", failed, len(entries)+len(claims))
	}
	fmt.Fprintf(w, "suite: %d entries passed\n", len(entries))
	return nil
}

// runSearchCmd explores a spec's fault space:
//
//	ibcbench search -scenario spec.json [-budget N] [-seed N] [-out minimal.json]
//
// A found counterexample is shrunk to the smallest violating timeline
// and written as a committable spec (-out, default alongside the
// report on stdout); the process exits nonzero on a find unless
// -expect-violation says that is the point (CI's planted fixture).
func runSearchCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ibcbench search", flag.ContinueOnError)
	var (
		specPath = fs.String("scenario", "", "scenario spec file (JSON) with a faults block")
		name     = fs.String("name", "", "built-in scenario name (see `ibcbench help`)")
		budget   = fs.Int("budget", 0, "candidate timelines to generate and run (0 = 16)")
		seed     = fs.Int64("seed", 0, "timeline-generator seed (0 = 1); the run seed comes from the spec")
		outPath  = fs.String("out", "", "write the minimal counterexample spec to this file")
		expect   = fs.Bool("expect-violation", false, "exit nonzero unless the search finds a counterexample")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *budget < 0 {
		return fmt.Errorf("ibcbench: -budget %d: must be at least 0", *budget)
	}
	s, err := loadSpec(*specPath, *name)
	if err != nil {
		return err
	}
	res, err := scenario.Search(s, scenario.SearchOptions{Budget: *budget, Seed: *seed})
	if err != nil {
		return err
	}
	res.Render(w)
	if ce := res.Counterexample; ce != nil {
		data, err := scenario.Encode(ce.Minimal)
		if err != nil {
			return err
		}
		if *outPath != "" {
			if err := os.WriteFile(*outPath, data, 0o644); err != nil {
				return fmt.Errorf("write %s: %w", *outPath, err)
			}
			fmt.Fprintf(w, "minimal reproducing spec written to %s (replay: ibcbench run -scenario %s)\n", *outPath, *outPath)
		} else {
			fmt.Fprintf(w, "minimal reproducing spec (replay with `ibcbench run -scenario <file>`):\n")
			w.Write(data)
		}
		if !*expect {
			return fmt.Errorf("search %s: counterexample found (generator seed %d, candidate %d of %d)",
				res.Spec, res.Seed, ce.Candidate+1, res.Examined)
		}
		return nil
	}
	if *expect {
		return fmt.Errorf("search %s: expected a counterexample, none found in %d candidate(s)", res.Spec, res.Examined)
	}
	return nil
}
