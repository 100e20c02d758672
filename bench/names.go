package main

// The benchmark's name contract: every workload and metric the harness
// can emit. BENCHMARK.json at the repository root declares the same
// sets; TestNamesMatchBenchmarkJSON keeps the two in step.

// workload is one pinned scenario spec (workloads/<Name>.json).
type workload struct {
	Name string
	// SeedOffset is added to -seed: workload i runs at seed S+i, and a
	// twin shares its serial workload's seed.
	SeedOffset int64
	// Twin names the serial workload whose result fingerprint this one
	// must reproduce byte for byte ("" = none).
	Twin string
	Why  string
}

var workloads = []workload{
	{Name: "two-peak", SeedOffset: 0,
		Why: "Fig. 8 peak point on two chains; execution-bound (ibc keeper, app, eventindex), streaming relayer path only"},
	{Name: "hub4-2r-proofs", SeedOffset: 1,
		Why: "Fig. 9 two-relayer contention on a hub with real Merkle proofs; the only workload where merkle and proveOn matter"},
	{Name: "line3-pfm-chaos", SeedOffset: 2,
		Why: "forwarded routes under a chaos timeline: gap clearing, timeouts and refunds, standby failover, drops and retries"},
	{Name: "mesh8", SeedOffset: 3,
		Why: "consensus-bound 28-edge mesh; valkey and votesig dominate, ibc does little; most scheduler events per packet"},
	{Name: "mesh8-par2", SeedOffset: 3, Twin: "mesh8",
		Why: "mesh8 through sim.Parallel with 2 workers; exercises windows, barriers and mail, result must equal mesh8"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// e2eMetric is one gated end-to-end metric. Bound is the share of the
// parent's median by which the metric may worsen before a change counts
// as a regression.
type e2eMetric struct {
	Name, Unit, Better string
	Bound              float64
	// Exact marks a simulated statistic: for one spec and seed it repeats
	// to the last digit, on any host.
	Exact bool
}

// Host-clock metrics carry host units (s, B, MiB); the three virt_*
// rows are on the simulator's virtual clock and say so in their unit.
// failed_share is not in this table: BENCHMARK.json carries it as
// failed/attempted, because a gated metric may never read 0.
var e2eMetrics = []e2eMetric{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_pkt", Unit: "count", Better: "lower", Bound: 0.01},
	{Name: "bytes_per_pkt", Unit: "B", Better: "lower", Bound: 0.02},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.20},
	{Name: "virt_tfps", Unit: "1/virt_s", Better: "higher", Bound: 0.02, Exact: true},
	{Name: "virt_latency_p50_s", Unit: "virt_s", Better: "lower", Bound: 0.10, Exact: true},
	{Name: "virt_latency_p99_s", Unit: "virt_s", Better: "lower", Bound: 0.20, Exact: true},
}

// layerMetric is one ungated per-layer metric.
type layerMetric struct{ Name, Unit, Better string }

// phaseNames are the harness's own timed calls into public functions;
// each is also a span in <workload>.spans.json.
var phaseNames = []string{
	"scenario.parse", "scenario.compile", "topo.deploy", "topo.run", "scenario.check", "topo.encode",
}

// cpuLayers are the repository's packages under ibcbench/internal
// ("/" written "."), plus gc and other for stacks with no such frame.
var cpuLayers = []string{
	"sim", "netem", "tendermint.consensus", "tendermint.votesig", "valkey",
	"tendermint.mempool", "tendermint.rpc", "tendermint.store", "tendermint.types",
	"app", "merkle", "ibc", "ibc.transfer", "ibc.pfm", "ibc.denom", "eventindex",
	"relayer", "workload", "metrics", "chain", "topo", "scenario", "chaos", "geo", "obs",
	"gc", "other",
}

// countNames are exact work counts read from the quiescent deployment;
// they must be identical across every rep of one workload and seed.
var countNames = []string{
	"sim.events", "sim.events_per_pkt", "netem.sent", "netem.dropped",
	"tendermint.consensus.blocks", "tendermint.consensus.empty_blocks", "tendermint.consensus.rounds",
	"tendermint.votesig.verifications", "tendermint.votesig.hits", "tendermint.votesig.rejected",
	"tendermint.mempool.added", "tendermint.mempool.rejected",
	"tendermint.rpc.broadcasts", "tendermint.rpc.queries", "tendermint.rpc.frame_errors", "tendermint.rpc.busy_virt_s",
	"app.txs_ok", "app.txs_failed", "app.state_keys", "eventindex.scans",
	"relayer.recv_delivered", "relayer.acks_delivered", "relayer.timeouts_delivered",
	"relayer.redundant_errors", "relayer.seq_mismatch_errors", "relayer.frames_lost",
	"relayer.txs_submitted", "relayer.txs_failed", "relayer.retries", "relayer.useful_tx_ratio",
	"workload.requested", "workload.submitted", "workload.failed", "topo.pkts_completed",
}

// countUnits names the counts that are not plain counts.
var countUnits = map[string]string{
	"tendermint.rpc.busy_virt_s": "virt_s",
	"relayer.useful_tx_ratio":    "ratio",
}

// layerMetrics lists every per-layer metric in emission order.
func layerMetrics() []layerMetric {
	var out []layerMetric
	for _, p := range phaseNames {
		out = append(out, layerMetric{p + "_s", "s", "lower"})
	}
	for _, l := range cpuLayers {
		out = append(out, layerMetric{l + ".cpu_s", "s", "lower"})
	}
	out = append(out,
		layerMetric{"trace.cpu_total_s", "s", "lower"},
		layerMetric{"trace.samples", "count", "lower"},
		layerMetric{"trace.profile_overhead", "ratio", "lower"},
	)
	for _, c := range countNames {
		unit, better := "count", "lower"
		if u, ok := countUnits[c]; ok {
			unit = u
		}
		if c == "relayer.useful_tx_ratio" || c == "topo.pkts_completed" {
			better = "higher"
		}
		out = append(out, layerMetric{c, unit, better})
	}
	return append(out,
		layerMetric{"sim.events_per_wall_s", "1/s", "higher"},
		layerMetric{"sim.virt_s_per_wall_s", "virt_s/s", "higher"},
		layerMetric{"topo.pkts_per_wall_s", "1/s", "higher"},
		layerMetric{"sim.parallel_speedup", "ratio", "higher"},
		layerMetric{"obs.enabled_overhead", "ratio", "lower"},
		layerMetric{"obs.trace_events", "count", "lower"},
		layerMetric{"host.cores", "count", "higher"},
		layerMetric{"host.gomaxprocs", "count", "higher"},
		layerMetric{"host.calib_s", "s", "lower"},
	)
}
