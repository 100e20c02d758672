// bench2json converts `go test -bench` text output into the same JSON
// metric-document shape -out produces, so hot-path benchmark runs can be
// tracked (and diffed warn-only against a committed baseline) by the CI
// bench job: `ibcbench bench2json bench_raw.txt -out BENCH_ci.json`.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// runBench2JSONCmd is the bench2json subcommand:
//
//	ibcbench bench2json bench_raw.txt [-out BENCH.json]
func runBench2JSONCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ibcbench bench2json", flag.ContinueOnError)
	outPath := fs.String("out", "", "write the JSON metrics document here (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("usage: ibcbench bench2json bench.txt [-out BENCH.json]")
	}
	txtPath := fs.Arg(0)
	if fs.NArg() > 1 {
		if err := fs.Parse(fs.Args()[1:]); err != nil {
			return err
		}
		if fs.NArg() != 0 {
			return fmt.Errorf("usage: ibcbench bench2json bench.txt [-out BENCH.json]")
		}
	}
	return runBench2JSON(txtPath, *outPath, w)
}

// benchLineRE matches one result line: name, iteration count, then the
// measurement fields.
var benchLineRE = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.+)$`)

// runBench2JSON parses the bench output at txtPath and writes the JSON
// document to outPath ("" = w). Repeated runs of one benchmark (-count)
// are averaged per unit.
func runBench2JSON(txtPath, outPath string, w io.Writer) error {
	f, err := os.Open(txtPath)
	if err != nil {
		return fmt.Errorf("bench2json: %w", err)
	}
	defer f.Close()
	// The conversion runs on the machine that ran the benchmarks, so the
	// current GOMAXPROCS matches the "-N" name suffix go test appended.
	doc, err := parseBenchOutput(f, runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	if len(doc) == 0 {
		return fmt.Errorf("bench2json: no benchmark result lines in %s", txtPath)
	}
	data, err := json.MarshalIndent(map[string]any{"bench": doc}, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if outPath == "" {
		_, err = w.Write(data)
		return err
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return fmt.Errorf("bench2json: write %s: %w", outPath, err)
	}
	fmt.Fprintf(os.Stderr, "bench metrics written to %s\n", outPath)
	return nil
}

// parseBenchOutput folds result lines into name -> unit -> mean value.
// procs is the GOMAXPROCS the benchmarks ran under: go test appends a
// "-<procs>" suffix to every benchmark name when procs > 1, which is
// stripped so documents from machines with different core counts (a
// laptop baseline vs a CI runner) diff by stable names. A trailing
// "-<digits>" that is not the procs count (vals-13) is part of the name
// and kept.
func parseBenchOutput(r io.Reader, procs int) (map[string]map[string]float64, error) {
	type acc struct {
		sum float64
		n   int
	}
	sums := make(map[string]map[string]*acc)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLineRE.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		name := m[1]
		if procs > 1 {
			name = strings.TrimSuffix(name, fmt.Sprintf("-%d", procs))
		}
		fields := strings.Fields(m[3])
		// Measurements come in "value unit" pairs (ns/op, B/op,
		// allocs/op, b.ReportMetric units).
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bench2json: bad value %q for %s", fields[i], name)
			}
			if sums[name] == nil {
				sums[name] = make(map[string]*acc)
			}
			unit := fields[i+1]
			if sums[name][unit] == nil {
				sums[name][unit] = &acc{}
			}
			sums[name][unit].sum += v
			sums[name][unit].n++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bench2json: %w", err)
	}
	out := make(map[string]map[string]float64, len(sums))
	for name, units := range sums {
		out[name] = make(map[string]float64, len(units))
		for unit, a := range units {
			out[name][unit] = a.sum / float64(a.n)
		}
	}
	return out, nil
}
