package main

// The parent side: spawn fresh-process repetitions, check them against
// each other, reduce them to the named metrics, and print.

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"syscall"
	"time"

	"ibcbench/internal/metrics"
)

// childTimeout bounds one repetition; the slowest workload takes a few
// seconds, so a child still running after this is hung.
const childTimeout = 150 * time.Second

type harness struct {
	ctx    context.Context
	seed   int64
	outDir string
	// calibS is host.calib_s, taken once per invocation.
	calibS float64
	// measured holds this invocation's results by workload name, so a
	// twin measured earlier is not run again.
	measured map[string]*workloadResult
}

// plan says how many repetitions of each kind one measurement makes. A
// count runs from Min up to Max while the budget lasts.
type plan struct {
	warmup             bool // one discarded plain rep first
	plainMin, plainMax int  // plain reps on their own
	// A traced round is a plain, a profiled and an obs-on rep back to
	// back. The host's speed drifts by several percent over minutes, so
	// the two overhead ratios compare reps taken next to each other.
	roundMin, roundMax int
	budget             time.Duration
}

var (
	// reportPlan is the full measurement: 1 warm-up + 7 timed plain reps,
	// 3 of them inside the traced rounds, and 3 profiled and 3 obs-on reps.
	reportPlan = plan{warmup: true, plainMin: 4, plainMax: 4, roundMin: 3, roundMax: 3}
	aaPlan     = plan{warmup: true, plainMin: 7, plainMax: 7}
)

// driverPlan fits one -workload run into its -seconds: never fewer than
// 5 timed plain reps for the end-to-end metrics, and at least one traced
// round for the per-layer metrics.
func driverPlan(budget time.Duration, traced bool) plan {
	if traced {
		return plan{roundMin: 1, roundMax: 2, budget: budget}
	}
	return plan{warmup: true, plainMin: 5, plainMax: 7, budget: budget}
}

// workloadResult is one workload's repetitions and what was made of them.
type workloadResult struct {
	Name     string       `json:"name"`
	Seed     int64        `json:"seed"`
	Plain    []*repResult `json:"plain"`
	Profiled []*repResult `json:"profiled,omitempty"`
	ObsOn    []*repResult `json:"obs_on,omitempty"`
	// paired are the plain reps (also in Plain) that ran inside the traced
	// rounds: the base of the two overhead ratios.
	paired []*repResult
	// TwinWallS and TwinFingerprint come from the serial twin's plain reps.
	TwinWallS       float64 `json:"twin_wall_s,omitempty"`
	TwinFingerprint string  `json:"twin_fingerprint,omitempty"`

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// E2E summarises each end-to-end metric over the timed plain reps.
	E2E    map[string]metrics.Dist `json:"end_to_end"`
	Layers map[string]float64      `json:"per_layer,omitempty"`
	// CPU is mean CPU seconds under every name the attribution produced.
	// Layers folds a package that cpuLayers does not name into "other".
	CPU map[string]float64 `json:"cpu_s,omitempty"`
}

func (r *workloadResult) correct() bool { return len(r.Problems) == 0 }

func mean(reps []*repResult, of func(*repResult) float64) float64 {
	if len(reps) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range reps {
		sum += of(r)
	}
	return sum / float64(len(reps))
}

// spawn runs one repetition in a fresh process of this binary.
func (h *harness) spawn(name string, seed int64, mode string) (*repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(h.ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", name,
		"-seed", strconv.FormatInt(seed, 10), "-mode", mode)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s %s rep: %w", name, mode, err)
	}
	var rep repResult
	if err := json.Unmarshal(out, &rep); err != nil {
		return nil, fmt.Errorf("%s %s rep: decoding child result: %w", name, mode, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rep.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return &rep, nil
}

// repeat calls fn max times, stopping early once it has run min times
// and another call like the last would pass the deadline.
func repeat(min, max int, deadline time.Time, fn func() error) error {
	for n := 1; n <= max; n++ {
		start := time.Now()
		if err := fn(); err != nil {
			return err
		}
		if n >= min && !deadline.IsZero() && time.Now().Add(time.Since(start)).After(deadline) {
			break
		}
	}
	return nil
}

// measure runs one workload's repetitions to the plan and reduces them.
func (h *harness) measure(w workload, p plan) (*workloadResult, error) {
	res := &workloadResult{Name: w.Name, Seed: h.seed + w.SeedOffset}
	if p.warmup {
		if _, err := h.spawn(w.Name, res.Seed, modePlain); err != nil {
			return nil, err
		}
	}
	var deadline time.Time
	if p.budget > 0 {
		deadline = time.Now().Add(p.budget)
	}
	run := func(mode string, into *[]*repResult) error {
		rep, err := h.spawn(w.Name, res.Seed, mode)
		if err == nil {
			*into = append(*into, rep)
		}
		return err
	}
	err := repeat(p.plainMin, p.plainMax, deadline, func() error { return run(modePlain, &res.Plain) })
	if err != nil {
		return nil, err
	}
	err = repeat(p.roundMin, p.roundMax, deadline, func() error {
		if err := run(modePlain, &res.Plain); err != nil {
			return err
		}
		res.paired = append(res.paired, res.Plain[len(res.Plain)-1])
		if err := run(modeProfile, &res.Profiled); err != nil {
			return err
		}
		return run(modeObs, &res.ObsOn)
	})
	if err != nil {
		return nil, err
	}
	if w.Twin != "" {
		if err := h.measureTwin(w, res); err != nil {
			return nil, err
		}
	}
	res.verify(w)
	res.reduce(h.calibS)
	h.measured[w.Name] = res
	return res, nil
}

// measureTwin fills in the serial twin's wall time and fingerprint, from
// this invocation's measurement of it or else from two plain reps.
func (h *harness) measureTwin(w workload, res *workloadResult) error {
	var reps []*repResult
	if m := h.measured[w.Twin]; m != nil {
		reps = m.Plain
	} else {
		for i := 0; i < 2; i++ {
			rep, err := h.spawn(w.Twin, res.Seed, modePlain)
			if err != nil {
				return err
			}
			reps = append(reps, rep)
		}
	}
	walls := make([]float64, len(reps))
	for i, r := range reps {
		walls[i] = r.WallS
	}
	res.TwinWallS = metrics.Summarize(walls).Median
	res.TwinFingerprint = reps[0].Fingerprint
	return nil
}

func (r *workloadResult) reps() []*repResult {
	all := append([]*repResult(nil), r.Plain...)
	all = append(all, r.Profiled...)
	return append(all, r.ObsOn...)
}

// verify checks the reps against the assertions, the workload's
// invariants and each other. The simulator is deterministic, so every
// rep of one spec and seed must agree exactly on every simulated value.
func (r *workloadResult) verify(w workload) {
	first := r.Plain[0]
	r.Attempted = first.Requested
	problem := func(format string, args ...any) {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
		r.Failed = r.Attempted
	}
	for i, rep := range r.reps() {
		if rep.Violations > 0 {
			// Each violation is one packet left non-terminal or unrefunded.
			r.Problems = append(r.Problems, fmt.Sprintf("rep %d (%s): %d scenario.Check violations", i, rep.Mode, rep.Violations))
			r.Failed = max(r.Failed, min(rep.Violations, r.Attempted))
		}
		for _, inv := range rep.Invariants {
			problem("rep %d (%s): workload invariant broken: %s", i, rep.Mode, inv)
		}
		if rep.Fingerprint != first.Fingerprint {
			problem("rep %d (%s): result fingerprint %.12s differs from rep 0's %.12s", i, rep.Mode, rep.Fingerprint, first.Fingerprint)
		}
		for _, name := range countNames {
			if rep.Counts[name] != first.Counts[name] {
				problem("rep %d (%s): %s = %v, rep 0 counted %v", i, rep.Mode, name, rep.Counts[name], first.Counts[name])
			}
		}
		if rep.VirtTFPS != first.VirtTFPS || rep.LatP50 != first.LatP50 || rep.LatP99 != first.LatP99 {
			problem("rep %d (%s): virtual throughput or latency differs from rep 0", i, rep.Mode)
		}
	}
	if w.Twin != "" && r.TwinFingerprint != first.Fingerprint {
		problem("result fingerprint %.12s differs from %s's %.12s", first.Fingerprint, w.Twin, r.TwinFingerprint)
	}
}

// reduce computes the end-to-end metrics from the plain reps and, when
// traced reps ran, the per-layer metrics.
func (r *workloadResult) reduce(calibS float64) {
	column := func(of func(*repResult) float64) metrics.Dist {
		values := make([]float64, len(r.Plain))
		for i, rep := range r.Plain {
			values[i] = of(rep)
		}
		return metrics.Summarize(values)
	}
	perPkt := func(total uint64, rep *repResult) float64 {
		return float64(total) / math.Max(float64(rep.Completed), 1)
	}
	r.E2E = map[string]metrics.Dist{
		"wall_s":             column(func(x *repResult) float64 { return x.WallS }),
		"setup_s":            column(func(x *repResult) float64 { return x.SetupS }),
		"allocs_per_pkt":     column(func(x *repResult) float64 { return perPkt(x.Mallocs, x) }),
		"bytes_per_pkt":      column(func(x *repResult) float64 { return perPkt(x.Bytes, x) }),
		"peak_rss_mb":        column(func(x *repResult) float64 { return x.PeakRSSMB }),
		"virt_tfps":          column(func(x *repResult) float64 { return x.VirtTFPS }),
		"virt_latency_p50_s": column(func(x *repResult) float64 { return x.LatP50 }),
		"virt_latency_p99_s": column(func(x *repResult) float64 { return x.LatP99 }),
	}
	if len(r.Profiled) == 0 {
		return
	}

	first := r.Plain[0]
	wall := r.E2E["wall_s"].Median
	l := map[string]float64{}
	traced := append(append([]*repResult(nil), r.Profiled...), r.ObsOn...)
	for _, p := range phaseNames {
		l[p+"_s"] = mean(traced, func(x *repResult) float64 { return x.Phases[p] })
	}
	r.CPU = map[string]float64{}
	for _, rep := range r.Profiled {
		for layer, s := range rep.CPU {
			r.CPU[layer] += s / float64(len(r.Profiled))
		}
	}
	for _, layer := range cpuLayers {
		l[layer+".cpu_s"] = 0
	}
	for layer, s := range r.CPU {
		if _, declared := l[layer+".cpu_s"]; !declared {
			layer = "other"
		}
		l[layer+".cpu_s"] += s
	}
	l["trace.cpu_total_s"] = mean(r.Profiled, func(x *repResult) float64 { return x.CPUTotalS })
	l["trace.samples"] = mean(r.Profiled, func(x *repResult) float64 { return float64(x.Samples) })
	wallOf := func(x *repResult) float64 { return x.WallS }
	l["trace.profile_overhead"] = mean(r.Profiled, wallOf) / mean(r.paired, wallOf)
	for _, c := range countNames {
		l[c] = first.Counts[c]
	}
	l["sim.events_per_wall_s"] = first.Counts["sim.events"] / wall
	l["sim.virt_s_per_wall_s"] = first.VirtS / wall
	l["topo.pkts_per_wall_s"] = float64(first.Completed) / wall
	// A serial workload is its own baseline.
	l["sim.parallel_speedup"] = 1
	if r.TwinWallS > 0 {
		l["sim.parallel_speedup"] = r.TwinWallS / wall
	}
	l["obs.enabled_overhead"] = mean(r.ObsOn, wallOf) / mean(r.paired, wallOf)
	l["obs.trace_events"] = mean(r.ObsOn, func(x *repResult) float64 { return float64(x.TraceEvents) })
	l["host.cores"] = float64(runtime.NumCPU())
	l["host.gomaxprocs"] = float64(first.GoMaxProcs)
	l["host.calib_s"] = calibS
	r.Layers = l
}

// calibrate times a fixed sha256-over-64-MiB loop, so a noisy or
// different host shows next to the numbers.
func calibrate() float64 {
	buf := make([]byte, 1<<20)
	hash := sha256.New()
	start := time.Now()
	for i := 0; i < 64; i++ {
		hash.Write(buf)
	}
	hash.Sum(nil)
	return time.Since(start).Seconds()
}

// driverRun measures one workload and prints the one-line JSON result
// the benchmark contract asks for as the last line of standard output.
func (h *harness) driverRun(name string, budget time.Duration, traced bool) (bool, error) {
	w, ok := findWorkload(name)
	if !ok {
		return false, fmt.Errorf("unknown workload %q", name)
	}
	res, err := h.measure(w, driverPlan(budget, traced))
	if err != nil {
		return false, err
	}
	for _, p := range res.Problems {
		fmt.Fprintln(os.Stderr, "bench:", w.Name+":", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.Attempted, res.Failed, map[string]value{}}
	if traced {
		if err := h.writeSpans(res); err != nil {
			return false, err
		}
		for _, m := range layerMetrics() {
			out.Metrics[m.Name] = value{res.Layers[m.Name], m.Unit}
		}
	} else {
		for _, m := range e2eMetrics {
			out.Metrics[m.Name] = value{res.E2E[m.Name].Median, m.Unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return res.correct(), nil
}

// header is the host and build the numbers were taken on.
type header struct {
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Cores      int     `json:"host.cores"`
	GoMaxProcs int     `json:"host.gomaxprocs"`
	CalibS     float64 `json:"host.calib_s"`
	Seed       int64   `json:"seed"`
}

func (h *harness) header() header {
	hd := header{GoVersion: runtime.Version(), Commit: "unknown", Cores: runtime.NumCPU(),
		GoMaxProcs: simProcs(), CalibS: h.calibS, Seed: h.seed}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				hd.Commit = s.Value
			}
		}
	}
	return hd
}

func (hd header) print() {
	fmt.Printf("# ibcbench bench: %s commit %.12s host.cores %d host.gomaxprocs %d host.calib_s %.4f seed %d\n",
		hd.GoVersion, hd.Commit, hd.Cores, hd.GoMaxProcs, hd.CalibS, hd.Seed)
}

// reportRun is the full benchmark: every selected workload to
// reportPlan, printed metric by metric and written to results.json.
func (h *harness) reportRun(ws []workload) (bool, error) {
	hd := h.header()
	hd.print()
	ok := true
	var results []*workloadResult
	for _, w := range ws {
		res, err := h.measure(w, reportPlan)
		if err != nil {
			return false, err
		}
		res.print()
		if err := h.writeSpans(res); err != nil {
			return false, err
		}
		ok = ok && res.correct()
		results = append(results, res)
	}
	err := h.writeJSON("results.json", struct {
		Header    header            `json:"header"`
		Workloads []*workloadResult `json:"workloads"`
	}{hd, results})
	if err != nil {
		return false, err
	}
	fmt.Printf("# results and spans written to %s\n", h.outDir)
	return ok, nil
}

// print writes one workload's metrics as
// "workload metric unit value [q1 q3 n]" lines plus the layer table.
func (r *workloadResult) print() {
	for _, m := range e2eMetrics {
		s := r.E2E[m.Name]
		fmt.Printf("%s %s %s %.6g [%.6g %.6g %d]\n", r.Name, m.Name, m.Unit, s.Median, s.Q1, s.Q3, s.N)
	}
	fmt.Printf("%s failed_share fraction %.6g [%d failed of %d attempted; latency n=%d]\n",
		r.Name, float64(r.Failed)/math.Max(float64(r.Attempted), 1), r.Failed, r.Attempted, r.Plain[0].LatN)
	for _, p := range r.Problems {
		fmt.Printf("%s PROBLEM %s\n", r.Name, p)
	}
	if r.Layers == nil {
		return
	}
	for _, m := range layerMetrics() {
		fmt.Printf("%s %s %s %.6g\n", r.Name, m.Name, m.Unit, r.Layers[m.Name])
	}
	// The layer table: CPU self time under every attributed name, largest
	// first, as a share of every sample taken.
	names := make([]string, 0, len(r.CPU))
	for name := range r.CPU {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if r.CPU[names[i]] != r.CPU[names[j]] {
			return r.CPU[names[i]] > r.CPU[names[j]]
		}
		return names[i] < names[j]
	})
	total := r.Layers["trace.cpu_total_s"]
	fmt.Printf("-- %s: CPU self time by layer (mean of %d profiled reps, %.3f s in all)\n", r.Name, len(r.Profiled), total)
	for _, name := range names {
		note := ""
		if _, declared := r.Layers[name+".cpu_s"]; !declared {
			note = "  (not in cpuLayers: counted under other.cpu_s)"
		}
		fmt.Printf("   %-24s %8.3f s %5.1f%%%s\n", name, r.CPU[name], 100*r.CPU[name]/total, note)
	}
}

func (h *harness) writeJSON(name string, v any) error {
	if err := os.MkdirAll(h.outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(h.outDir, name), append(data, '\n'), 0o644)
}

// writeSpans writes the traced reps' spans to <workload>.spans.json and
// drops them from the reps, so results.json does not repeat them.
func (h *harness) writeSpans(r *workloadResult) error {
	var spans []span
	for _, rep := range r.reps() {
		if rep.Mode != modePlain {
			spans = append(spans, rep.Spans...)
		}
		rep.Spans = nil
	}
	return h.writeJSON(r.Name+".spans.json", spans)
}

// aaRun measures the plain reps twice with the same binary and compares
// the two sets of medians against each metric's own bound: the noise
// floor a real before/after comparison has to clear.
func (h *harness) aaRun(ws []workload) (bool, error) {
	h.header().print()
	fmt.Println("workload metric unit A B rel_diff bound verdict")
	ok := true
	for _, w := range ws {
		a, err := h.measure(w, aaPlan)
		if err != nil {
			return false, err
		}
		b, err := h.measure(w, aaPlan)
		if err != nil {
			return false, err
		}
		for _, side := range []*workloadResult{a, b} {
			for _, p := range side.Problems {
				fmt.Printf("%s PROBLEM %s\n", w.Name, p)
				ok = false
			}
		}
		for _, m := range e2eMetrics {
			ma, mb := a.E2E[m.Name].Median, b.E2E[m.Name].Median
			diff := math.Abs(mb-ma) / ma
			verdict := "ok"
			// A virtual metric repeats exactly for one seed; any
			// difference at all means the simulation is not deterministic.
			if diff > m.Bound || (m.Exact && diff != 0) {
				verdict, ok = "EXCEEDS", false
			}
			fmt.Printf("%s %s %s %.6g %.6g %.4f %.4f %s\n", w.Name, m.Name, m.Unit, ma, mb, diff, m.Bound, verdict)
		}
	}
	return ok, nil
}
