package ibcbench_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ibcbench/internal/metrics"
	"ibcbench/internal/scenario"
	"ibcbench/internal/topo"
)

var update = flag.Bool("update", false, "rewrite BENCH_work.json (make rebaseline-work) or FIDELITY.json (make rebaseline-virt), as -run selects, from this run")

const ledgerFile = "BENCH_work.json"

// workLedger is BENCH_work.json: the exact half of the host-cost
// benchmark, one row per bench/workloads/*.json at the benchmark's own
// seed. GoVersion is the toolchain that measured the allocation fields.
type workLedger struct {
	GoVersion string      `json:"go_version"`
	Workloads []ledgerRow `json:"workloads"`
}

// ledgerRow holds what one workload's run repeats exactly: the result
// fingerprint, the chains' heads and the work counts on any toolchain,
// and the allocation fields, under the benchmark's names, on one
// toolchain. Heads is sha256 over every chain's last header hash, in
// deployment order: the result leaves out what the blocks hold, so a
// change to the order of the messages in a transaction moves Heads
// alone.
type ledgerRow struct {
	Name         string            `json:"name"`
	Seed         int64             `json:"seed"`
	Fingerprint  string            `json:"fingerprint"`
	Heads        string            `json:"heads"`
	Counts       map[string]uint64 `json:"counts"`
	AllocsPerPkt float64           `json:"allocs_per_pkt"`
	BytesPerPkt  float64           `json:"bytes_per_pkt"`
	SetupAllocs  float64           `json:"setup_allocs"`
}

// allocTolerance is how far a measured allocation field may sit from
// its row, either way, as a share of the row: a count moves by under
// 0.02 per packet between processes, bytes by a few.
var allocTolerance = []struct {
	field string
	of    func(ledgerRow) float64
	share float64
}{
	{"allocs_per_pkt", func(r ledgerRow) float64 { return r.AllocsPerPkt }, 0.01},
	{"bytes_per_pkt", func(r ledgerRow) float64 { return r.BytesPerPkt }, 0.02},
	{"setup_allocs", func(r ledgerRow) float64 { return r.SetupAllocs }, 0.01},
}

// TestWorkLedger runs every benchmark workload the way a benchmark child
// does (Parse, Compile, RunDeployed, Check) and compares it with its row
// of BENCH_work.json. The fingerprint and counts must match exactly. The
// allocation fields are compared only on the toolchain release that
// wrote the file, and not under the race detector, whose own
// allocations are counted. `make rebaseline-work` rewrites the file.
func TestWorkLedger(t *testing.T) {
	if *update && raceEnabled {
		t.Fatal("-update under -race would record the race detector's allocations")
	}
	seeds := benchSeeds(t)
	files, err := filepath.Glob(filepath.Join("bench", "workloads", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	got := workLedger{GoVersion: runtime.Version()}
	for _, f := range files {
		name := strings.TrimSuffix(filepath.Base(f), ".json")
		seed, ok := seeds[name]
		if !ok {
			t.Fatalf("%s: bench/names.go lists no such workload", name)
		}
		row, err := measureWorkload(name, f, seed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got.Workloads = append(got.Workloads, row)
	}
	if *update {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ledgerFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %d workloads on %s", ledgerFile, len(got.Workloads), got.GoVersion)
		return
	}

	data, err := os.ReadFile(ledgerFile)
	if err != nil {
		t.Fatal(err)
	}
	var want workLedger
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", ledgerFile, err)
	}
	rows := map[string]ledgerRow{}
	for _, r := range want.Workloads {
		rows[r.Name] = r
	}
	allocs := !raceEnabled && goRelease(want.GoVersion) == goRelease(got.GoVersion)
	for _, g := range got.Workloads {
		w, ok := rows[g.Name]
		if !ok {
			t.Errorf("%s: no row in %s; add it with `make rebaseline-work`", g.Name, ledgerFile)
			continue
		}
		delete(rows, g.Name)
		compareRow(t, g, w, allocs)
	}
	// order-free: each leftover row is reported on its own.
	for name := range rows {
		t.Errorf("%s: row in %s has no bench/workloads/%s.json; drop it with `make rebaseline-work`", name, ledgerFile, name)
	}
	if !allocs {
		t.Logf("allocation fields not compared: ledger written by %s, running %s (race detector %v)", want.GoVersion, got.GoVersion, raceEnabled)
	}
	if t.Failed() {
		t.Logf("if the change is meant to move these, rewrite the ledger with `make rebaseline-work` and commit its diff")
	}
}

// compareRow reports every field of g that differs from the ledger row w.
func compareRow(t *testing.T, g, w ledgerRow, allocs bool) {
	t.Helper()
	if g.Seed != w.Seed {
		t.Errorf("%s: seed = %d, ledger has %d", g.Name, g.Seed, w.Seed)
	}
	if g.Fingerprint != w.Fingerprint {
		t.Errorf("%s: fingerprint = %.16s…, ledger has %.16s…", g.Name, g.Fingerprint, w.Fingerprint)
	}
	if g.Heads != w.Heads {
		t.Errorf("%s: heads = %.16s…, ledger has %.16s…", g.Name, g.Heads, w.Heads)
	}
	names := make([]string, 0, len(g.Counts))
	for c := range g.Counts {
		names = append(names, c)
	}
	for c := range w.Counts {
		if _, ok := g.Counts[c]; !ok {
			names = append(names, c)
		}
	}
	sort.Strings(names)
	for _, c := range names {
		if g.Counts[c] != w.Counts[c] {
			t.Errorf("%s: %s = %d, ledger has %d", g.Name, c, g.Counts[c], w.Counts[c])
		}
	}
	if !allocs {
		return
	}
	for _, a := range allocTolerance {
		have, ref := a.of(g), a.of(w)
		if math.Abs(have-ref) > a.share*ref {
			t.Errorf("%s: %s = %g, ledger has %g (%+.2f %%, tolerance ±%g %%)",
				g.Name, a.field, have, ref, 100*(have-ref)/ref, 100*a.share)
		}
	}
}

// measureWorkload runs the spec in file twice at seed and reads the
// second run. The first is a warm-up: a fresh process's first run
// allocates about 1 % more, once.
func measureWorkload(name, file string, seed int64) (ledgerRow, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return ledgerRow{}, err
	}
	row := ledgerRow{Name: name, Seed: seed}
	var setupErr error
	row.SetupAllocs = testing.AllocsPerRun(10, func() {
		_, sc, err := compileSpec(data)
		if err == nil {
			cfg := sc.Deploy
			cfg.Seed = seed
			_, err = topo.Deploy(sc.Topology, cfg)
		}
		if err != nil {
			setupErr = err
		}
	})
	if setupErr != nil {
		return row, setupErr
	}
	first, _, err := benchRun(data, seed)
	if err != nil {
		return row, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, dep, err := benchRun(data, seed)
	runtime.ReadMemStats(&after)
	if err != nil {
		return row, err
	}
	if row.Fingerprint, err = fingerprint(res); err != nil {
		return row, err
	}
	if again, _ := fingerprint(first); again != row.Fingerprint {
		return row, fmt.Errorf("two runs in one process gave different results")
	}
	if row.Heads, err = heads(dep); err != nil {
		return row, err
	}
	row.Counts = workCounts(dep, res)
	pkts := math.Max(float64(row.Counts["topo.pkts_completed"]), 1)
	row.AllocsPerPkt = math.Round(1000*float64(after.Mallocs-before.Mallocs)/pkts) / 1000
	row.BytesPerPkt = math.Round(float64(after.TotalAlloc-before.TotalAlloc) / pkts)
	return row, nil
}

// fingerprint is what a benchmark child hashes: sha256 of the result's
// JSON encoding.
func fingerprint(res *topo.Result) (string, error) {
	enc, err := json.Marshal(res)
	sum := sha256.Sum256(enc)
	return hex.EncodeToString(sum[:]), err
}

// heads is sha256 over the hash of every chain's last block header.
func heads(d *topo.Deployment) (string, error) {
	h := sha256.New()
	for _, c := range d.Chains {
		cb, err := c.Store.Block(c.Store.Height())
		if err != nil {
			return "", err
		}
		hash := cb.Block.Header.Hash()
		h.Write(hash[:])
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func compileSpec(data []byte) (scenario.Spec, topo.Scenario, error) {
	spec, err := scenario.Parse(data)
	if err != nil {
		return spec, topo.Scenario{}, err
	}
	sc, err := scenario.Compile(spec)
	return spec, sc, err
}

// benchRun is one plain benchmark repetition's timed region: Parse,
// Compile, RunDeployed and Check. A violation fails the run, as it fails
// the benchmark.
func benchRun(data []byte, seed int64) (*topo.Result, *topo.Deployment, error) {
	spec, sc, err := compileSpec(data)
	if err != nil {
		return nil, nil, err
	}
	res, dep, err := sc.RunDeployed(seed)
	if err != nil {
		return nil, nil, err
	}
	names := spec.Assertions
	if len(names) == 0 {
		names = scenario.DefaultAssertions()
	}
	if v := scenario.Check(dep, names); len(v) > 0 {
		return nil, nil, fmt.Errorf("%d scenario.Check violations, first: %s", len(v), v[0])
	}
	return res, dep, nil
}

// workCounts reads the ledger's work counts off the quiescent deployment
// through the accessors the benchmark child reads, under its names.
func workCounts(d *topo.Deployment, res *topo.Result) map[string]uint64 {
	c := map[string]uint64{
		"sim.events":          d.TotalProcessed(),
		"netem.sent":          d.Net.Sent(),
		"netem.dropped":       d.Net.Dropped(),
		"topo.pkts_completed": uint64(res.Total[metrics.StatusCompleted]),
	}
	for _, ch := range d.Chains {
		c["tendermint.consensus.blocks"] += uint64(ch.Store.Height())
		c["tendermint.consensus.rounds"] += ch.Engine.TotalRounds()
		ok, failed := ch.App.TxStats()
		c["app.txs_ok"] += ok
		c["app.txs_failed"] += failed
	}
	for _, l := range d.Links {
		rs := l.Relayers
		if l.Standby != nil {
			rs = append(rs[:len(rs):len(rs)], l.Standby)
		}
		for _, r := range rs {
			st := r.Stats()
			c["relayer.recv_delivered"] += st.RecvDelivered
			c["relayer.acks_delivered"] += st.AcksDelivered
			c["relayer.timeouts_delivered"] += st.TimeoutsDelivered
			c["relayer.txs_submitted"] += st.TxsSubmitted
			c["relayer.txs_failed"] += st.TxsFailed
		}
	}
	return c
}

// benchSeeds reads each workload's seed, 11 plus its SeedOffset, from
// the benchmark's workload table in bench/names.go, so the offsets live
// in one place.
func benchSeeds(t *testing.T) map[string]int64 {
	t.Helper()
	const defaultSeed = 11 // bench's -seed default
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("bench", "names.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[string]int64{}
	ast.Inspect(f, func(n ast.Node) bool {
		table, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		if slice, ok := table.Type.(*ast.ArrayType); !ok || fmt.Sprint(slice.Elt) != "workload" {
			return true
		}
		for _, e := range table.Elts {
			var name string
			var offset int64
			for _, field := range e.(*ast.CompositeLit).Elts {
				kv := field.(*ast.KeyValueExpr)
				lit, ok := kv.Value.(*ast.BasicLit)
				switch {
				case !ok:
				case fmt.Sprint(kv.Key) == "Name":
					name, _ = strconv.Unquote(lit.Value)
				case fmt.Sprint(kv.Key) == "SeedOffset":
					offset, _ = strconv.ParseInt(lit.Value, 10, 64)
				}
			}
			seeds[name] = defaultSeed + offset
		}
		return false
	})
	if len(seeds) == 0 {
		t.Fatal("bench/names.go: no workload table found")
	}
	return seeds
}

// goRelease is the go1.N of a runtime.Version string: allocation counts
// hold within one release and move between releases.
func goRelease(v string) string {
	if parts := strings.SplitN(v, ".", 3); len(parts) >= 2 {
		return parts[0] + "." + parts[1]
	}
	return v
}
