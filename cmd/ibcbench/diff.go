// Result-file diffing: compare two -out JSON documents metric by metric
// for cross-PR regression tracking of reproduced figures. The
// comparison itself lives in internal/resultdiff, shared with the
// service's /api/diff and the experiment store's run-compatibility
// check; this file renders it as text and applies -fail-on-change.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"ibcbench/internal/resultdiff"
)

// runDiffCmd is the diff subcommand:
//
//	ibcbench diff old.json new.json [-fail-on-change pct]
//
// Flags may come before or after the two positional files (flag
// parsing stops at the first positional, so a second pass picks up
// trailing flags).
func runDiffCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ibcbench diff", flag.ContinueOnError)
	failPct := fs.Float64("fail-on-change", -1, "exit nonzero when any metric moves beyond this tolerance in percent (negative = report only); an armed gate also fails when the files' config headers mismatch")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 2 {
		return fmt.Errorf("usage: ibcbench diff old.json new.json [-fail-on-change pct]")
	}
	oldPath, newPath := fs.Arg(0), fs.Arg(1)
	if fs.NArg() > 2 {
		if err := fs.Parse(fs.Args()[2:]); err != nil {
			return err
		}
		if fs.NArg() != 0 {
			return fmt.Errorf("usage: ibcbench diff old.json new.json [-fail-on-change pct]")
		}
	}
	return runDiff(oldPath, newPath, *failPct, w)
}

// runDiff loads two -out result files and prints per-metric deltas.
// A non-negative failPct arms the CI regression gate: a non-nil error is
// returned (and the process exits nonzero) when any numeric metric moves
// beyond that tolerance in percent. An armed gate also fails when the
// files' config headers disagree, moved metrics or not: a baseline made
// with other flags cannot vouch for this run, so it must be refreshed,
// not silently skipped. Added/removed metrics never trip the gate (new
// benchmarks must not fail it). A metric moving off zero has no defined
// percent change and always trips an armed gate.
func runDiff(oldPath, newPath string, failPct float64, w io.Writer) error {
	oldDoc, err := loadResults(oldPath)
	if err != nil {
		return err
	}
	newDoc, err := loadResults(newPath)
	if err != nil {
		return err
	}
	cfgDiffs := warnConfigMismatch(oldDoc, newDoc, w)
	d := resultdiff.Metrics(oldDoc, newDoc)

	fmt.Fprintf(w, "# diff %s -> %s\n", oldPath, newPath)
	var exceeded []string
	moved := len(d.Changed)+len(d.Added)+len(d.Removed) > 0
	if !moved {
		fmt.Fprintf(w, "no differences (%d metrics compared)\n", d.Unchanged)
	}
	if len(d.Changed) > 0 {
		fmt.Fprintf(w, "%-58s %14s %14s %14s %9s\n", "metric", "old", "new", "delta", "%")
		for _, row := range d.Changed {
			on, oldNum := row.Old.(float64)
			nn, newNum := row.New.(float64)
			if oldNum && newNum {
				delta := nn - on
				pct := "n/a"
				if row.DeltaPct != nil {
					pct = fmt.Sprintf("%+.1f%%", *row.DeltaPct)
				}
				if failPct >= 0 && (row.DeltaPct == nil || math.Abs(*row.DeltaPct) > failPct) {
					exceeded = append(exceeded, fmt.Sprintf("%s: %s -> %s (%s)", row.Path, fmtNum(on), fmtNum(nn), pct))
				}
				sign := ""
				if delta >= 0 {
					sign = "+"
				}
				fmt.Fprintf(w, "%-58s %14s %14s %14s %9s\n",
					row.Path, fmtNum(on), fmtNum(nn), sign+fmtNum(delta), pct)
			} else {
				fmt.Fprintf(w, "%-58s %14v %14v\n", row.Path, row.Old, row.New)
			}
		}
	}
	for _, row := range d.Added {
		fmt.Fprintf(w, "added:   %s = %v\n", row.Path, row.New)
	}
	for _, row := range d.Removed {
		fmt.Fprintf(w, "removed: %s = %v\n", row.Path, row.Old)
	}
	if moved {
		fmt.Fprintf(w, "%d changed, %d added, %d removed, %d unchanged\n",
			len(d.Changed), len(d.Added), len(d.Removed), d.Unchanged)
	}
	for _, m := range exceeded {
		fmt.Fprintf(w, "exceeds ±%.1f%%: %s\n", failPct, m)
	}
	if failPct >= 0 && len(cfgDiffs) > 0 {
		return fmt.Errorf("diff: config headers mismatch on %s; an armed gate needs a baseline made with the same flags",
			resultdiff.FieldNames(cfgDiffs))
	}
	if len(exceeded) > 0 {
		return fmt.Errorf("diff: %d metric(s) moved beyond ±%.1f%%", len(exceeded), failPct)
	}
	return nil
}

// warnConfigMismatch compares the documents' "config" headers (topology,
// region preset, netem config, seed, ...) field by field and warns when
// they disagree, naming each differing field: a metric diff across
// different configurations measures the config change, not a
// regression. Documents without a header (pre-header results) are
// compared silently. Non-empty field diffs fail an armed gate.
func warnConfigMismatch(oldDoc, newDoc any, w io.Writer) []resultdiff.FieldDiff {
	diffs := resultdiff.ConfigDiff(resultdiff.ConfigHeader(oldDoc), resultdiff.ConfigHeader(newDoc))
	if len(diffs) == 0 {
		return nil
	}
	fmt.Fprintln(w, "WARNING: result files were produced with different configurations; metric deltas below reflect the config change, not a regression:")
	for _, d := range diffs {
		fmt.Fprintf(w, "  config.%s\n", d)
	}
	return diffs
}

func loadResults(path string) (any, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("diff: %w", err)
	}
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("diff: %s: %w", path, err)
	}
	return doc, nil
}

func fmtNum(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e12 {
		return fmt.Sprintf("%.0f", f)
	}
	return fmt.Sprintf("%.3f", f)
}
