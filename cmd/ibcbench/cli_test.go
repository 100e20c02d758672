package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ibcbench/internal/scenario"
)

func TestUnknownSubcommand(t *testing.T) {
	if err := run([]string{"nope"}); err == nil || !strings.Contains(err.Error(), "unknown subcommand") {
		t.Fatalf("expected unknown-subcommand error, got %v", err)
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

// The help page is generated from the registries — every experiment
// entry and registered scenario must appear.
func TestHelpListsRegistries(t *testing.T) {
	var buf bytes.Buffer
	printUsage(&buf)
	out := buf.String()
	for _, want := range []string{"sweep", "search", "bench2json", "meshscale", "votescale", "quickstart", "timeoutstorm"} {
		if !strings.Contains(out, want) {
			t.Errorf("help output missing %q", want)
		}
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
	var rep scenario.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report not valid JSON: %v", err)
	}
	if !rep.Passed() || rep.Result == nil || rep.Spec.Name != "quickstart" {
		t.Errorf("unexpected report: passed=%v result=%p name=%q", rep.Passed(), rep.Result, rep.Spec.Name)
	}
}

// -print must emit the canonical encoding of the registered spec —
// the starting point for a spec file of one's own.
func TestRunScenarioCmdPrint(t *testing.T) {
	var buf bytes.Buffer
	if err := runScenarioCmd([]string{"-name", "failover", "-print"}, &buf); err != nil {
		t.Fatal(err)
	}
	e, ok := scenario.Lookup("failover")
	if !ok {
		t.Fatal("failover not registered")
	}
	want, err := scenario.Encode(e.Spec)
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
	if !strings.Contains(out, "PASS quickstart") || !strings.Contains(out, "scenario(s) passed") {
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

func TestBench2JSONCmd(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(raw, []byte("BenchmarkThing-8   10   1500 ns/op\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "bench.json")
	if err := runBench2JSONCmd([]string{raw, "-out", outPath}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "BenchmarkThing") {
		t.Errorf("converted doc missing benchmark name:\n%s", data)
	}
	if err := runBench2JSONCmd(nil, &bytes.Buffer{}); err == nil {
		t.Error("no positional: expected usage error")
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
