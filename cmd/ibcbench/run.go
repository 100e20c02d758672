// The scenario entry points: `ibcbench run` executes one declarative
// spec (a file or a registry name) and checks its assertions,
// `ibcbench suite` runs the whole registered library, and `ibcbench
// search` explores a spec's declared fault space for assertion
// violations and shrinks what it finds to a minimal replay.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ibcbench/internal/metrics"
	"ibcbench/internal/obs"
	"ibcbench/internal/scenario"
)

// loadSpec resolves the shared -scenario/-name flag pair: a spec file
// on disk or a registered scenario by name, exactly one of the two.
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
		e, ok := scenario.Lookup(name)
		if !ok {
			return scenario.Spec{}, fmt.Errorf("ibcbench: unknown scenario %q (registered: %s)", name, strings.Join(scenario.Names(), ", "))
		}
		return e.Spec, nil
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
		name      = fs.String("name", "", "registered scenario name (see `ibcbench help`)")
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

// runSuiteCmd runs every registered scenario and reports one verdict
// line each:
//
//	ibcbench suite [-short] [-seed N]
//	ibcbench suite -lint     # round-trip/compile lint only, no runs
func runSuiteCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ibcbench suite", flag.ContinueOnError)
	var (
		short = fs.Bool("short", false, "run only the scenarios marked cheap enough for smoke suites")
		lint  = fs.Bool("lint", false, "lint the registry (validate, compile, canonical round trip) without running anything")
		seed  = fs.Int64("seed", 0, "override every spec's run seed (0 = each spec's own)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	names := scenario.Names()
	if *lint {
		failed := 0
		for _, n := range names {
			if err := scenario.Lint(n); err != nil {
				failed++
				fmt.Fprintf(w, "lint %s: %v\n", n, err)
				continue
			}
			fmt.Fprintf(w, "lint %s: ok\n", n)
		}
		if failed > 0 {
			return fmt.Errorf("suite: %d of %d scenario(s) failed lint", failed, len(names))
		}
		fmt.Fprintf(w, "suite: %d scenario(s) lint clean\n", len(names))
		return nil
	}
	if *short {
		kept := names[:0]
		for _, n := range names {
			if e, _ := scenario.Lookup(n); e.Short {
				kept = append(kept, n)
			}
		}
		names = kept
	}
	type verdict struct {
		rep *scenario.Report
		err error
	}
	verdicts := scenario.ParallelMap(names, func(n string) verdict {
		e, _ := scenario.Lookup(n)
		rep, err := scenario.Run(e.Spec, *seed, nil)
		return verdict{rep, err}
	})
	failed := 0
	for i, v := range verdicts {
		switch {
		case v.err != nil:
			failed++
			fmt.Fprintf(w, "FAIL %-13s %v\n", names[i], v.err)
		case !v.rep.Passed():
			failed++
			fmt.Fprintf(w, "FAIL %-13s %d violation(s)\n", names[i], len(v.rep.Violations))
			for _, viol := range v.rep.Violations {
				fmt.Fprintf(w, "     VIOLATION %s\n", viol)
			}
		default:
			done := v.rep.Result.Total[metrics.StatusCompleted] + v.rep.Result.RoutesCompleted
			fmt.Fprintf(w, "PASS %-13s %d assertion(s) held, %d transfer(s)/route(s) completed\n",
				names[i], len(v.rep.Assertions), done)
		}
	}
	if failed > 0 {
		return fmt.Errorf("suite: %d of %d scenario(s) failed", failed, len(names))
	}
	fmt.Fprintf(w, "suite: %d scenario(s) passed\n", len(names))
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
		name     = fs.String("name", "", "registered scenario name (see `ibcbench help`)")
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
