package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"ibcbench/internal/experiments"
	"ibcbench/internal/scenario"
)

func TestUnknownSubcommand(t *testing.T) {
	for _, name := range []string{"nope", "bench2json"} {
		if err := run([]string{name}); err == nil || !strings.Contains(err.Error(), "unknown subcommand") {
			t.Errorf("%s: expected unknown-subcommand error, got %v", name, err)
		}
	}
}

// Every run names its subcommand: no arguments and a leading flag are
// errors that point at the help page, and neither starts an experiment
// (`gas` would take seconds and print its table).
func TestNoFlatInvocation(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no arguments: expected an error")
	}
	err := run([]string{"-experiment", "gas"})
	if err == nil || !strings.Contains(err.Error(), "ibcbench help") {
		t.Errorf("leading flag: expected an error naming `ibcbench help`, got %v", err)
	}
}

// The docs, the Makefile, CI and the verify notes may only show
// invocations that exist: a subcommand first, no examples/ program, and
// no flag-built traced run (a trace is recorded by `run ... -trace`).
func TestDocsUseSubcommands(t *testing.T) {
	flat := regexp.MustCompile("(^|[\\s`/])ibcbench\\s+-")
	oldTrace := regexp.MustCompile("\\btrace\\s+-(out|summary|topology)\\b")
	for _, path := range []string{"README.md", "Makefile", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"} {
		data, err := os.ReadFile(filepath.Join("../..", path))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if flat.MatchString(line) || strings.Contains(line, "go run ./examples/") {
				t.Errorf("%s:%d: invocation without a subcommand, or of a deleted example: %s", path, i+1, strings.TrimSpace(line))
			}
			if oldTrace.MatchString(line) {
				t.Errorf("%s:%d: `trace` only validates and analyzes; record with `run ... -trace FILE`: %s", path, i+1, strings.TrimSpace(line))
			}
		}
	}
}

// The help page is generated from the catalogue: every figure and
// built-in appears on exactly one line, with its name and description.
func TestHelpListsRegistries(t *testing.T) {
	var buf bytes.Buffer
	printUsage(&buf)
	out := buf.String()
	for _, want := range []string{"sweep", "search"} {
		if !strings.Contains(out, want) {
			t.Errorf("help output missing %q", want)
		}
	}
	lines := strings.Split(out, "\n")
	for _, e := range experiments.Catalogue() {
		n := 0
		for _, l := range lines {
			if strings.HasSuffix(l, " "+e.Desc) && strings.Contains(l, e.Name+" ") {
				n++
			}
		}
		if n != 1 {
			t.Errorf("help lists %s (%q) on %d lines, want 1", e.Name, e.Desc, n)
		}
	}
}

// A figure's name goes to sweep, a built-in's to run and search: each
// refusal names the subcommand that takes it.
func TestCatalogueNamesRouteToTheirSubcommand(t *testing.T) {
	for _, tc := range []struct {
		cmd  func([]string, io.Writer) error
		args []string
		want string
	}{
		{runScenarioCmd, []string{"-name", "fig12"}, "ibcbench sweep -experiment fig12"},
		{runSearchCmd, []string{"-name", "fig12"}, "ibcbench sweep -experiment fig12"},
		{runScenarioCmd, []string{"-name", "table1", "-print"}, "ibcbench sweep -experiment table1"},
		{runSweep, []string{"-experiment", "quickstart"}, "ibcbench run -name quickstart"},
	} {
		var out bytes.Buffer
		err := tc.cmd(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("args %v: got error %v, want one naming `%s`", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("args %v: printed output before refusing:\n%s", tc.args, out.String())
		}
	}
}

// A sweep document is a pure function of its flags: the width of the
// worker pool (GOMAXPROCS) changes neither a result nor the header, so
// the bytes match exactly.
func TestSweepDocumentIndependentOfWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small votescale sweep twice")
	}
	dir := t.TempDir()
	var docs [][]byte
	for _, procs := range []int{1, 4} {
		out := filepath.Join(dir, fmt.Sprintf("votescale-p%d.json", procs))
		prev := runtime.GOMAXPROCS(procs)
		err := runSweep([]string{
			"-experiment", "votescale", "-topology", "two", "-validators", "4,8",
			"-rate", "2", "-seeds", "1", "-windows", "1", "-out", out,
		}, &bytes.Buffer{})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, data)
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Errorf("GOMAXPROCS=1 and GOMAXPROCS=4 wrote different documents:\n%s\n---\n%s", docs[0], docs[1])
	}
}

func TestRunScenarioCmdFromFile(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "report.json")
	var buf bytes.Buffer
	err := runScenarioCmd([]string{
		"-scenario", "../../internal/scenario/testdata/quickstart.json", "-out", outPath,
	}, &buf)
	if err != nil {
		t.Fatalf("run quickstart: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "assertions: 3 checked, all held") {
		t.Errorf("missing assertion verdict in output:\n%s", buf.String())
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	// The report is read as a document, not decoded back into Go types:
	// nothing in the program reads a report it wrote.
	var rep struct {
		Spec       struct{ Name string } `json:"spec"`
		Result     map[string]any        `json:"result"`
		Violations []any                 `json:"violations"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report not valid JSON: %v", err)
	}
	if len(rep.Violations) != 0 || rep.Result == nil || rep.Spec.Name != "quickstart" {
		t.Errorf("unexpected report: violations=%v result=%v name=%q", rep.Violations, rep.Result != nil, rep.Spec.Name)
	}
}

// -print must emit the canonical encoding of the catalogue's spec —
// the starting point for a spec file of one's own.
func TestRunScenarioCmdPrint(t *testing.T) {
	var buf bytes.Buffer
	if err := runScenarioCmd([]string{"-name", "failover", "-print"}, &buf); err != nil {
		t.Fatal(err)
	}
	spec, err := experiments.Builtin("failover")
	if err != nil {
		t.Fatal(err)
	}
	want, err := scenario.Encode(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("-print output differs from canonical encoding:\n%s", buf.String())
	}
}

func TestRunScenarioCmdFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-scenario", "a.json", "-name", "hub"},
		{"-name", "no-such-scenario"},
	} {
		if err := runScenarioCmd(args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v: expected an error", args)
		}
	}
}

// A bad count is refused before any experiment runs, with an error that
// names the flag: `-transfers 0` used to run fig12 empty and print a NaN
// share, and fig13 seven empty cells.
func TestSweepFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-experiment", "fig12", "-transfers", "0"}, "-transfers"},
		{[]string{"-experiment", "fig13", "-transfers", "-5"}, "-transfers"},
		{[]string{"-experiment", "votescale", "-validators", "4,0"}, "-validators"},
		{[]string{"-experiment", "topo", "-topology", "two", "-rate", "1", "-seeds", "0", "-windows", "1"}, "-seeds"},
		{[]string{"-experiment", "topo", "-topology", "two", "-rate", "1", "-seeds", "1", "-windows", "-2"}, "-windows"},
		{[]string{"-experiment", "forward", "-topology", "line:3", "-rate", "-4", "-seeds", "1"}, "-rate"},
		// A spec's seed 0 means its default, so a cell cannot run at 0.
		{[]string{"-experiment", "gas", "-seed", "0"}, "-seed"},
	} {
		var out bytes.Buffer
		err := runSweep(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("args %v: got error %v, want one naming %s", tc.args, err, tc.flag)
		}
		if out.Len() != 0 {
			t.Errorf("args %v: printed output before refusing:\n%s", tc.args, out.String())
		}
	}
}

// A negative count is refused, not read as its default: `search -budget
// -3` used to run 16 candidates and `trace -analyze -top -1` printed
// every row.
func TestNegativeCountFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		cmd  func([]string, io.Writer) error
		args []string
		flag string
	}{
		{runSearchCmd, []string{"-scenario", "../../internal/scenario/testdata/planted.json", "-budget", "-3"}, "-budget"},
		{runTraceCmd, []string{"-analyze", "no-such-trace.json", "-top", "-1"}, "-top"},
	} {
		var out bytes.Buffer
		err := tc.cmd(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("args %v: got error %v, want one naming %s", tc.args, err, tc.flag)
		}
		if out.Len() != 0 {
			t.Errorf("args %v: printed output before refusing:\n%s", tc.args, out.String())
		}
	}
}

func TestSuiteLint(t *testing.T) {
	var buf bytes.Buffer
	if err := runSuiteCmd([]string{"-lint"}, &buf); err != nil {
		t.Fatalf("suite -lint: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "lint quickstart: ok") || !strings.Contains(out, "lint clean") {
		t.Errorf("unexpected lint output:\n%s", out)
	}
}

func TestSuiteShort(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several scenarios")
	}
	var buf bytes.Buffer
	if err := runSuiteCmd([]string{"-short"}, &buf); err != nil {
		t.Fatalf("suite -short: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "PASS quickstart") || !strings.Contains(out, "6 entries passed") {
		t.Errorf("unexpected suite output:\n%s", out)
	}
	if strings.Contains(out, "FAIL") {
		t.Errorf("short suite reported a failure:\n%s", out)
	}
}

// The CI search smoke in miniature: the planted fixture must yield a
// counterexample within the budget, the minimal spec must land in
// -out, and the command only exits zero because -expect-violation
// says finding one is the point.
func TestSearchCmdPlantedFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a search batch")
	}
	outPath := filepath.Join(t.TempDir(), "minimal.json")
	var buf bytes.Buffer
	err := runSearchCmd([]string{
		"-scenario", "../../internal/scenario/testdata/planted.json",
		"-budget", "4", "-out", outPath, "-expect-violation",
	}, &buf)
	if err != nil {
		t.Fatalf("search: %v\n%s", err, buf.String())
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	min, err := scenario.Parse(data)
	if err != nil {
		t.Fatalf("minimal spec does not parse: %v", err)
	}
	if len(min.Chaos) == 0 || min.Faults != nil || min.Seed == 0 {
		t.Errorf("minimal spec not committable: chaos=%d faults=%v seed=%d", len(min.Chaos), min.Faults, min.Seed)
	}
	// The replay is an ordinary run, so it can be traced, and a traced
	// run still checks its assertions.
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	replay := []string{"-scenario", outPath, "-trace", tracePath}
	if err := runScenarioCmd(append(replay, "-expect-violation"), &bytes.Buffer{}); err != nil {
		t.Errorf("traced replay of the counterexample: %v", err)
	}
	if err := runScenarioCmd(replay, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "assertion violation") {
		t.Errorf("traced replay without -expect-violation: expected a violation error, got %v", err)
	}
	if err := runTraceCmd([]string{"-validate", tracePath}, &bytes.Buffer{}); err != nil {
		t.Errorf("trace of the violating run: %v", err)
	}
	// Without -expect-violation the same find is a nonzero exit.
	err = runSearchCmd([]string{
		"-scenario", "../../internal/scenario/testdata/planted.json", "-budget", "4",
	}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "counterexample found") {
		t.Errorf("expected counterexample-found error, got %v", err)
	}
}

func TestDiffCmdPositionalsAndTrailingFlags(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, v float64) string {
		p := filepath.Join(dir, name)
		doc := map[string]any{"config": map[string]any{"experiment": "topo"}, "topo": map[string]any{"throughput": v}}
		data, _ := json.Marshal(doc)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	oldP, newP := mk("old.json", 100), mk("new.json", 101)
	var buf bytes.Buffer
	if err := runDiffCmd([]string{oldP, newP, "-fail-on-change", "10"}, &buf); err != nil {
		t.Fatalf("diff within tolerance: %v\n%s", err, buf.String())
	}
	if err := runDiffCmd([]string{oldP}, &bytes.Buffer{}); err == nil {
		t.Error("one positional: expected usage error")
	}
	if err := runDiffCmd([]string{oldP, mk("worse.json", 200), "-fail-on-change", "10"}, &bytes.Buffer{}); err == nil {
		t.Error("big move with armed gate: expected an error")
	}
}

// The record->validate->analyze loop on a small run: `run -trace`
// records, the trace subcommand's two file tools read.
func TestTraceCmdLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an instrumented scenario")
	}
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	var buf bytes.Buffer
	if err := runScenarioCmd([]string{"-name", "hub", "-seed", "7", "-trace", tracePath}, &buf); err != nil {
		t.Fatalf("run -trace: %v", err)
	}
	var check bytes.Buffer
	if err := runTraceCmd([]string{"-validate", tracePath}, &check); err != nil {
		t.Fatalf("trace validate: %v\n%s", err, check.String())
	}
	if !strings.Contains(check.String(), "OK") {
		t.Errorf("unexpected validate output: %s", check.String())
	}
	var ana bytes.Buffer
	if err := runTraceCmd([]string{"-analyze", tracePath, "-top", "5"}, &ana); err != nil {
		t.Fatalf("trace analyze: %v", err)
	}
	if !strings.Contains(ana.String(), "span tree") {
		t.Errorf("unexpected analyze output:\n%s", ana.String())
	}
	if err := runTraceCmd(nil, &bytes.Buffer{}); err == nil {
		t.Error("no mode flag: expected usage error")
	}
	if err := runTraceCmd([]string{"-out", tracePath, "-topology", "two"}, &bytes.Buffer{}); err == nil {
		t.Error("trace -out: the flag-built run door is gone, expected a flag error")
	}
}
