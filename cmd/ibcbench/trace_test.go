package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// recordTrace runs a built-in scenario with -trace and returns the
// trace file's path.
func recordTrace(t *testing.T, name string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.json")
	var out bytes.Buffer
	if err := runScenarioCmd([]string{"-name", name, "-trace", path}, &out); err != nil {
		t.Fatalf("run -name %s -trace: %v\n%s", name, err, out.String())
	}
	if !strings.Contains(out.String(), "all held") {
		t.Fatalf("traced run did not report its assertions:\n%s", out.String())
	}
	return path
}

// TestTraceExportRoundTrip runs the CLI's trace path end to end: a
// traced hub run exports a Chrome trace that the structural validator
// accepts, and the flame tree names the expected subsystems and spans.
func TestTraceExportRoundTrip(t *testing.T) {
	path := recordTrace(t, "hub")
	var check bytes.Buffer
	if err := runValidateTrace(path, &check); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(check.String(), "OK") {
		t.Fatalf("validator output %q", check.String())
	}
	var flame bytes.Buffer
	if err := runTraceAnalyze(path, 0, &flame); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"chain", "relayer", "block", "scan"} {
		if !strings.Contains(flame.String(), want) {
			t.Fatalf("flame tree misses %q:\n%s", want, flame.String())
		}
	}
}

// TestTraceAnalyzeRoundTrip: an exported forwarded-route trace feeds
// `trace -analyze`, which prints the flame span tree and the
// critical-path tables; two same-seed traced runs analyze to the same
// bytes.
func TestTraceAnalyzeRoundTrip(t *testing.T) {
	analyze := func(path string) string {
		var buf bytes.Buffer
		if err := runTraceAnalyze(path, 15, &buf); err != nil {
			t.Fatal(err)
		}
		// The heading names the file; the tables must not depend on it.
		_, tables, _ := strings.Cut(buf.String(), "\n")
		return tables
	}
	got := analyze(recordTrace(t, "pfmroute"))
	for _, want := range []string{"span tree", "chain", "# critical path", "end-to-end", "attributed"} {
		if !strings.Contains(got, want) {
			t.Fatalf("analysis misses %q:\n%s", want, got)
		}
	}
	if got != analyze(recordTrace(t, "pfmroute")) {
		t.Fatal("two same-seed traced runs produced different analysis output")
	}
	if err := runTraceAnalyze(filepath.Join(t.TempDir(), "missing.json"), 15, io.Discard); err == nil {
		t.Fatal("analyzer accepted a missing file")
	}
}

// TestTracedRunIsTheSameRun: tracing attaches to a run, it does not
// describe another one. A file spec with a chaos timeline gives the
// same report traced and untraced, apart from the registry snapshot
// that only an instrumented run has.
func TestTracedRunIsTheSameRun(t *testing.T) {
	const spec = "../../internal/scenario/testdata/failover.json"
	dir := t.TempDir()
	report := func(extra ...string) []byte {
		out := filepath.Join(dir, "report.json")
		args := append([]string{"-scenario", spec, "-out", out}, extra...)
		if err := runScenarioCmd(args, io.Discard); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	plain := report()
	tracePath := filepath.Join(dir, "trace.json")
	traced := report("-trace", tracePath)
	if err := runValidateTrace(tracePath, io.Discard); err != nil {
		t.Fatal(err)
	}
	// RawMessage keeps the snapshot's exact bytes, so cutting the one
	// field out of the traced document is a byte-level operation.
	var doc struct {
		Result struct{ Metrics json.RawMessage } `json:"result"`
	}
	if err := json.Unmarshal(traced, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Result.Metrics) == 0 || !bytes.Contains(plain, []byte(`"Faults": [`)) {
		t.Fatalf("traced report has a %d-byte registry snapshot; untraced report:\n%s", len(doc.Result.Metrics), plain)
	}
	field := append([]byte(",\n    \"Metrics\": "), doc.Result.Metrics...)
	if stripped := bytes.Replace(traced, field, nil, 1); !bytes.Equal(stripped, plain) {
		t.Fatalf("traced report differs from the untraced one beyond result.Metrics:\n%s\nvs\n%s", stripped, plain)
	}
}

// TestValidateTraceRejectsBrokenDocs pins the validator's failure modes.
func TestValidateTraceRejectsBrokenDocs(t *testing.T) {
	cases := map[string]string{
		"not-json":      `{"traceEvents": [`,
		"empty":         `{"traceEvents": []}`,
		"unknown-phase": `{"traceEvents": [{"name":"x","ph":"Q","ts":0}]}`,
		"negative-dur":  `{"traceEvents": [{"name":"x","ph":"X","ts":1,"dur":-2}]}`,
		"unbalanced":    `{"traceEvents": [{"name":"p","ph":"b","cat":"pkt","id":"0x1","ts":0}]}`,
		"end-no-begin":  `{"traceEvents": [{"name":"p","ph":"e","cat":"pkt","id":"0x1","ts":0}]}`,
		"orphan-async":  `{"traceEvents": [{"name":"p","ph":"n","cat":"pkt","id":"0x1","ts":0}]}`,
	}
	dir := t.TempDir()
	for name, doc := range cases {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := runValidateTrace(path, &out); err == nil {
			t.Fatalf("%s: validator accepted a broken document", name)
		}
	}
}
