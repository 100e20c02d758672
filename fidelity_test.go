package ibcbench_test

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"testing"

	"ibcbench/internal/experiments"
)

// fidelityContext is the fidelity report's context, `ibcbench sweep
// -experiment all -seeds 1`: the sweep's defaults at one seed.
func fidelityContext(record func(string, any)) experiments.RunContext {
	ctx := experiments.Defaults
	ctx.Seeds, ctx.Out, ctx.Record = 1, io.Discard, record
	return ctx
}

// TestFidelity runs every figure at the fidelity context (about 11 s and
// a 2 GB peak RSS on two cores) and compares the report with
// FIDELITY.json byte for byte; every row must pass too. `make
// rebaseline-virt` rewrites the file, which moves only when simulation
// behaviour moves.
func TestFidelity(t *testing.T) {
	figures, err := experiments.Select("all")
	if err != nil {
		t.Fatal(err)
	}
	results := map[string]any{}
	for _, e := range figures {
		if err := e.Run(fidelityContext(func(k string, v any) { results[k] = v })); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
	}
	claims := experiments.Fidelity(results)
	for _, c := range claims {
		if !c.Pass {
			t.Errorf("%s %q: measured %s, outside %s", c.Artifact, c.Shape, c.Measured, c.Band)
		}
	}
	data, err := json.MarshalIndent(claims, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if *update {
		if err := os.WriteFile("FIDELITY.json", data, 0o644); err != nil {
			t.Fatal(err)
		}
	} else if committed, err := os.ReadFile("FIDELITY.json"); err != nil || !bytes.Equal(committed, data) {
		t.Errorf("FIDELITY.json (%v) differs from this run; if simulation behaviour was meant to move, run `make rebaseline-virt`:\n%s", err, data)
	}
}
