package main

// One repetition, run inside a fresh child process: set-up loop, then
// one timed scenario run through the public entry points, measured from
// outside the program.

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"ibcbench/internal/metrics"
	"ibcbench/internal/obs"
	"ibcbench/internal/relayer"
	"ibcbench/internal/scenario"
	"ibcbench/internal/tendermint/rpc"
	"ibcbench/internal/topo"
)

//go:embed workloads/*.json
var specFS embed.FS

func specBytes(name string) ([]byte, error) {
	return specFS.ReadFile("workloads/" + name + ".json")
}

// Rep modes. Plain reps give the end-to-end metrics with tracing and
// profiling off; the other two give the per-layer numbers.
const (
	modePlain   = "plain"
	modeProfile = "profile" // CPU profile around the timed region
	modeObs     = "obs"     // Scenario.Deploy.Obs = obs.New()
)

// setupCalls is how many back-to-back Parse+Compile+Deploy calls one
// child times for setup_s. A call takes 0.5-2.5 ms, so the child reports
// the median of many: the first calls run cold and a collection now and
// then lands on one.
const setupCalls = 100

// span is one timed harness call. Spans of one rep share Rep; Parent is
// the ID of the enclosing span (-1 for the root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Rep    string  `json:"rep"`
	Name   string  `json:"name"`
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
}

// repResult is everything one child reports.
type repResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Mode     string `json:"mode"`

	WallS     float64 `json:"wall_s"`
	SetupS    float64 `json:"setup_s"`
	Mallocs   uint64  `json:"mallocs"`
	Bytes     uint64  `json:"bytes"`
	PeakRSSMB float64 `json:"peak_rss_mb"` // filled by the parent from the child's rusage

	Requested  int      `json:"requested"`
	Completed  int      `json:"completed"`
	Violations int      `json:"violations"`
	Invariants []string `json:"invariants,omitempty"` // workload invariants that did not hold

	VirtS    float64 `json:"virt_s"` // virtual duration of the run
	VirtTFPS float64 `json:"virt_tfps"`
	LatP50   float64 `json:"virt_latency_p50_s"`
	LatP99   float64 `json:"virt_latency_p99_s"`
	LatN     int     `json:"virt_latency_n"`

	Fingerprint string             `json:"fingerprint"`
	Counts      map[string]float64 `json:"counts"`
	Phases      map[string]float64 `json:"phases"`
	Spans       []span             `json:"spans"`

	CPU         map[string]float64 `json:"cpu_s,omitempty"` // profile reps: layer -> seconds
	CPUTotalS   float64            `json:"cpu_total_s,omitempty"`
	Samples     int64              `json:"samples,omitempty"`
	TraceEvents int                `json:"trace_events,omitempty"` // obs reps

	GoMaxProcs int `json:"gomaxprocs"`
}

// spanRecorder keeps spans in memory; the parent writes them out when
// the benchmark ends.
type spanRecorder struct {
	origin time.Time
	rep    string
	spans  []span
}

// begin opens a span under parent (-1 = root) and returns its ID.
func (r *spanRecorder) begin(parent int, name string) int {
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Rep: r.rep, Name: name,
		StartS: time.Since(r.origin).Seconds()})
	return len(r.spans) - 1
}

// end closes the span and returns its duration in seconds.
func (r *spanRecorder) end(id int) float64 {
	sp := &r.spans[id]
	sp.EndS = time.Since(r.origin).Seconds()
	return sp.EndS - sp.StartS
}

// simProcs is the GOMAXPROCS every child runs at: the host's cores, but
// no more than 4, so results from bigger hosts stay comparable.
func simProcs() int { return min(runtime.NumCPU(), 4) }

// runRep is the child's whole job: one repetition of the named workload,
// whose spec is data, at one seed.
func runRep(name string, data []byte, seed int64, mode string) (*repResult, error) {
	runtime.GOMAXPROCS(simProcs())
	out := &repResult{Workload: name, Seed: seed, Mode: mode, GoMaxProcs: simProcs(), Phases: map[string]float64{}}

	deploy := func(sc topo.Scenario) error {
		cfg := sc.Deploy
		cfg.Seed = seed
		_, err := topo.Deploy(sc.Topology, cfg)
		return err
	}
	setups := make([]float64, setupCalls)
	for i := range setups {
		start := time.Now()
		spec, err := scenario.Parse(data)
		if err != nil {
			return nil, err
		}
		sc, err := scenario.Compile(spec)
		if err != nil {
			return nil, err
		}
		if err := deploy(sc); err != nil {
			return nil, err
		}
		setups[i] = time.Since(start).Seconds()
	}
	out.SetupS = metrics.Summarize(setups).Median

	// The timed region starts from a collected heap so the set-up loop's
	// garbage is not charged to the run.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var prof bytes.Buffer
	if mode == modeProfile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}

	rec := &spanRecorder{origin: time.Now(), rep: fmt.Sprintf("%s/%d/%s/%d", name, seed, mode, time.Now().UnixNano())}
	root := rec.begin(-1, "rep")
	phase := func(name string, fn func() error) error {
		id := rec.begin(root, name)
		err := fn()
		out.Phases[name] = rec.end(id)
		return err
	}
	var (
		spec       scenario.Spec
		sc         topo.Scenario
		res        *topo.Result
		dep        *topo.Deployment
		violations []scenario.Violation
	)
	// One scenario.Run, split at its public seams so the deployment stays
	// in hand for the work counts: Parse, Compile, RunDeployed, Check.
	run := func() error {
		if err := phase("scenario.parse", func() (err error) { spec, err = scenario.Parse(data); return }); err != nil {
			return err
		}
		if err := phase("scenario.compile", func() (err error) { sc, err = scenario.Compile(spec); return }); err != nil {
			return err
		}
		if mode != modePlain {
			// RunDeployed deploys internally; a traced rep times one more,
			// discarded deployment to split topo.run from topo.deploy.
			if err := phase("topo.deploy", func() error { return deploy(sc) }); err != nil {
				return err
			}
		}
		if mode == modeObs {
			sc.Deploy.Obs = obs.New()
		}
		if err := phase("topo.run", func() (err error) { res, dep, err = sc.RunDeployed(seed); return }); err != nil {
			return err
		}
		return phase("scenario.check", func() error {
			names := spec.Assertions
			if len(names) == 0 {
				names = scenario.DefaultAssertions()
			}
			violations = scenario.Check(dep, names)
			return nil
		})
	}
	start := time.Now()
	err := run()
	wall := time.Since(start).Seconds()
	if mode == modeProfile {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	// The extra deployment of a traced rep is not part of scenario.Run.
	out.WallS = wall - out.Phases["topo.deploy"]
	out.Phases["topo.run"] -= out.Phases["topo.deploy"]
	out.Mallocs = after.Mallocs - before.Mallocs
	out.Bytes = after.TotalAlloc - before.TotalAlloc

	if dep.Obs != nil {
		out.TraceEvents = dep.Obs.Tracer.Len()
		// The registry snapshot rides in the result only when obs is on;
		// without it the bytes must equal a plain rep's.
		res.Metrics = nil
	}
	err = phase("topo.encode", func() error {
		enc, err := json.Marshal(res)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(enc)
		out.Fingerprint = hex.EncodeToString(sum[:])
		return nil
	})
	if err != nil {
		return nil, err
	}
	rec.end(root)
	out.Spans = rec.spans

	out.Violations = len(violations)
	// The first few, so a failed run says what was left behind.
	for _, v := range violations[:min(len(violations), 3)] {
		fmt.Fprintf(os.Stderr, "bench: %s seed %d: %s\n", name, seed, v)
	}
	out.Completed = res.Total[metrics.StatusCompleted]
	out.VirtS = res.Duration.Seconds()
	out.VirtTFPS = res.Throughput
	out.Counts = workCounts(dep, res)
	out.Requested = int(out.Counts["workload.requested"])
	var pool []float64
	for _, l := range dep.Links {
		for _, lat := range l.Tracker.CompletionTimes() {
			pool = append(pool, lat.Seconds())
		}
	}
	sort.Float64s(pool)
	out.LatN = len(pool)
	out.LatP50 = metrics.Quantile(pool, 0.50)
	out.LatP99 = metrics.Quantile(pool, 0.99)
	out.Invariants = brokenInvariants(name, out.Counts, res)

	if mode == modeProfile {
		p, err := parseProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		att, err := attribute(p)
		if err != nil {
			return nil, err
		}
		out.CPU = map[string]float64{}
		for layer, ns := range att.ByLayer {
			out.CPU[layer] = float64(ns) / 1e9
		}
		out.CPUTotalS = float64(att.TotalNS) / 1e9
		out.Samples = att.Samples
	}
	return out, nil
}

// workCounts reads the exact work counts off the finished deployment's
// public accessors and the result's per-edge reports.
func workCounts(dep *topo.Deployment, res *topo.Result) map[string]float64 {
	c := map[string]float64{}
	add := func(name string, v uint64) { c[name] += float64(v) }
	for _, n := range countNames {
		c[n] = 0
	}
	add("sim.events", dep.TotalProcessed())
	add("netem.sent", dep.Net.Sent())
	add("netem.dropped", dep.Net.Dropped())
	servers := map[*rpc.Server]bool{}
	for _, ch := range dep.Chains {
		servers[ch.RPC] = true
		add("tendermint.consensus.blocks", uint64(ch.Store.Height()))
		add("tendermint.consensus.empty_blocks", ch.Engine.EmptyBlocks())
		add("tendermint.consensus.rounds", ch.Engine.TotalRounds())
		vs := ch.Engine.VoteCache().Stats()
		add("tendermint.votesig.verifications", vs.Verifications)
		add("tendermint.votesig.hits", vs.Hits)
		add("tendermint.votesig.rejected", vs.Rejected)
		add("tendermint.mempool.added", ch.Pool.Added())
		add("tendermint.mempool.rejected", ch.Pool.Rejected())
		ok, failed := ch.App.TxStats()
		add("app.txs_ok", ok)
		add("app.txs_failed", failed)
		add("app.state_keys", uint64(ch.App.State().Len()))
		add("eventindex.scans", ch.Events.ScanCount())
	}
	relayerStats := func(st relayer.Stats) {
		add("relayer.recv_delivered", st.RecvDelivered)
		add("relayer.acks_delivered", st.AcksDelivered)
		add("relayer.timeouts_delivered", st.TimeoutsDelivered)
		add("relayer.redundant_errors", st.RedundantErrors)
		add("relayer.seq_mismatch_errors", st.SeqMismatchErrors)
		add("relayer.frames_lost", st.FramesLost)
		add("relayer.txs_submitted", st.TxsSubmitted)
		add("relayer.txs_failed", st.TxsFailed)
		add("relayer.retries", st.Retries)
	}
	for _, l := range dep.Links {
		all := l.Relayers
		if l.Standby != nil {
			all = append(all[:len(all):len(all)], l.Standby)
		}
		for _, r := range all {
			relayerStats(r.Stats())
			// Each relayer talks to its own full node on either chain.
			servers[r.EndpointRPC(l.Pair.A.ID)] = true
			servers[r.EndpointRPC(l.Pair.B.ID)] = true
		}
	}
	for srv := range servers {
		if srv == nil {
			continue
		}
		b, q, fe := srv.Stats()
		add("tendermint.rpc.broadcasts", b)
		add("tendermint.rpc.queries", q)
		add("tendermint.rpc.frame_errors", fe)
		// Summed in integer nanoseconds below, so map order cannot move it.
		add("tendermint.rpc.busy_virt_s", uint64(srv.BusyTime()))
	}
	c["tendermint.rpc.busy_virt_s"] /= 1e9
	for _, e := range res.Edges {
		c["workload.requested"] += float64(e.Workload.Requested)
		c["workload.submitted"] += float64(e.Workload.Submitted)
		c["workload.failed"] += float64(e.Workload.Failed)
	}
	completed := float64(res.Total[metrics.StatusCompleted])
	c["topo.pkts_completed"] = completed
	if completed > 0 {
		c["sim.events_per_pkt"] = c["sim.events"] / completed
	}
	if sub := c["relayer.txs_submitted"]; sub > 0 {
		c["relayer.useful_tx_ratio"] = (sub - c["relayer.txs_failed"]) / sub
	}
	return c
}

// brokenInvariants lists the workload invariants that did not hold: the
// properties each workload is in the benchmark for. A spec that stops
// exercising its mechanism would otherwise keep passing unnoticed.
func brokenInvariants(name string, c map[string]float64, res *topo.Result) []string {
	var broken []string
	require := func(ok bool, what string) {
		if !ok {
			broken = append(broken, what)
		}
	}
	switch name {
	case "line3-pfm-chaos":
		require(c["relayer.timeouts_delivered"] >= 100, "relayer.timeouts_delivered >= 100")
		require(c["relayer.redundant_errors"] > 0, "relayer.redundant_errors > 0")
		require(c["netem.dropped"] > 0, "netem.dropped > 0")
		require(res.RoutesCompleted == len(res.Routes), "every route completed")
	case "hub4-2r-proofs":
		require(c["relayer.redundant_errors"] > 0, "relayer.redundant_errors > 0")
	case "two-peak", "mesh8", "mesh8-par2":
		require(c["relayer.redundant_errors"] == 0, "relayer.redundant_errors == 0")
		require(c["relayer.timeouts_delivered"] == 0, "relayer.timeouts_delivered == 0")
		require(c["netem.dropped"] == 0, "netem.dropped == 0")
	}
	return broken
}
