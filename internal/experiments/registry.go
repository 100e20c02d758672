// The experiment registry: every `-experiment` entrypoint as a named
// entry with its selectors, description and driver, in the order the
// paper presents them. The CLI derives its help text, the sweep driver
// and `-experiment all` from this table instead of a hand-maintained
// if-chain, so adding an experiment is one Entry literal.
package experiments

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// RunContext carries the flag-derived inputs shared by every
// experiment driver. Record sinks the result struct under the entry's
// name into the run's result document (a no-op sink is fine).
type RunContext struct {
	Opt        Options
	Seed       int64
	Transfers  int
	Topology   string
	Rate       int
	Forwarding bool
	Validators []int
	Parallel   int
	Out        io.Writer
	Record     func(key string, v any)
}

// Entry is one registered experiment: Name keys the result document,
// Selectors lists every `-experiment` value that triggers it (besides
// "all"), and Run executes and renders it.
type Entry struct {
	Name      string
	Selectors []string
	Desc      string
	Run       func(RunContext) error
}

// registry holds the entries in execution order — `-experiment all`
// runs them top to bottom, matching the paper's presentation order.
var registry = []Entry{
	{
		Name:      "tendermint",
		Selectors: []string{"fig6", "fig7", "table1"},
		Desc:      "single-chain Tendermint sweep: commit latency, throughput and the execution summary (Figs. 6-7, Table I)",
		Run:       runTendermint,
	},
	{
		Name:      "fig8",
		Selectors: []string{"fig8", "fig10"},
		Desc:      "one relayer, WAN: transfer throughput and completion breakdown vs input rate (Figs. 8, 10)",
		Run:       relayerEntry("fig8", 1, false),
	},
	{
		Name:      "fig8-lan",
		Selectors: []string{"fig8-lan", "fig10"},
		Desc:      "one relayer, LAN latencies: the fig8 sweep without WAN delay",
		Run:       relayerEntry("fig8-lan", 1, true),
	},
	{
		Name:      "fig9",
		Selectors: []string{"fig9", "fig11"},
		Desc:      "two redundant relayers, WAN: throughput vs input rate plus redundant-submission errors (Figs. 9, 11)",
		Run:       relayerEntry("fig9", 2, false),
	},
	{
		Name:      "fig9-lan",
		Selectors: []string{"fig9-lan", "fig11"},
		Desc:      "two redundant relayers, LAN latencies: the fig9 sweep without WAN delay",
		Run:       relayerEntry("fig9-lan", 2, true),
	},
	{
		Name:      "fig12",
		Selectors: []string{"fig12"},
		Desc:      "one-block burst: 13-step relay breakdown of N transfers submitted in a single block (Fig. 12)",
		Run:       runFig12,
	},
	{
		Name:      "fig13",
		Selectors: []string{"fig13"},
		Desc:      "submission spread: completion time of N transfers spread over increasing block counts (Fig. 13)",
		Run:       runFig13,
	},
	{
		Name:      "gas",
		Selectors: []string{"gas"},
		Desc:      "gas per 100-message transaction class vs the paper's measurements (§IV-A)",
		Run:       runGas,
	},
	{
		Name:      "topo",
		Selectors: []string{"topo"},
		Desc:      "multi-chain topology sweep (-topology two|line:n|hub:n|mesh:n) with optional forwarding and geo regions",
		Run:       runTopo,
	},
	{
		Name:      "forward",
		Selectors: []string{"forward"},
		Desc:      "latency vs hop count: sequential-leg routes against the packet-forward middleware, side by side",
		Run:       runForward,
	},
	{
		Name:      "failover",
		Selectors: []string{"failover"},
		Desc:      "relayer failover: supervised standbys under primary-host partitions of increasing duration",
		Run:       runFailover,
	},
	{
		Name:      "votescale",
		Selectors: []string{"votescale"},
		Desc:      "validator-set scaling sweep on the shared vote-verification engine",
		Run:       runVoteScale,
	},
	{
		Name:      "meshscale",
		Selectors: []string{"meshscale"},
		Desc:      "serial-vs-parallel runner speedup grid on full-mesh topologies (fingerprint-checked)",
		Run:       runMeshScale,
	},
	{
		Name:      "ws",
		Selectors: []string{"ws"},
		Desc:      "WebSocket frame-limit experiment: completion under event-subscription frame loss (§V)",
		Run:       runWS,
	},
}

// Registry returns the experiment table in execution order.
func Registry() []Entry {
	out := make([]Entry, len(registry))
	copy(out, registry)
	return out
}

// Selectors returns every valid `-experiment` value (without "all") in
// first-use order — the CLI help string.
func Selectors() []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range registry {
		for _, s := range e.Selectors {
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	return out
}

// Select resolves an `-experiment` value to the entries it triggers,
// in execution order. "all" selects everything; an unknown selector is
// an error listing the valid values.
func Select(sel string) ([]Entry, error) {
	if sel == "all" {
		return Registry(), nil
	}
	var out []Entry
	for _, e := range registry {
		for _, s := range e.Selectors {
			if s == sel {
				out = append(out, e)
				break
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: unknown experiment %q (valid: %s|all)", sel, strings.Join(Selectors(), "|"))
	}
	return out, nil
}

func runTendermint(ctx RunContext) error {
	res := Tendermint(ctx.Opt)
	ctx.Record("tendermint", res)
	res.Fig6.Render(ctx.Out)
	fmt.Fprintln(ctx.Out)
	res.Fig7.Render(ctx.Out)
	fmt.Fprintln(ctx.Out, "\n# Table I: execution summary")
	fmt.Fprintf(ctx.Out, "%-10s %-12s %-14s %-12s\n", "rate", "requested", "submitted", "committed")
	for _, r := range res.Table1 {
		fmt.Fprintf(ctx.Out, "%-10d %-12d %-8d(%.1f%%) %-8d(%.1f%%)\n", r.Rate, r.Requested,
			r.Submitted, pctOf(r.Submitted, r.Requested),
			r.Committed, pctOf(r.Committed, r.Submitted))
	}
	fmt.Fprintln(ctx.Out)
	return nil
}

// relayerEntry builds the driver for one cell of the relayer-sweep
// family (Figs. 8-11): a relayer count and a LAN/WAN switch.
func relayerEntry(name string, relayers int, lan bool) func(RunContext) error {
	return func(ctx RunContext) error {
		pts := RelayerSweep(ctx.Opt, relayers, lan)
		ctx.Record(name, pts)
		fmt.Fprintf(ctx.Out, "# %s: %d relayer(s), lan=%v (Figs. 8-11)\n", name, relayers, lan)
		fmt.Fprintf(ctx.Out, "%-8s %-10s %-11s %-9s %-10s %-13s %-10s\n",
			"rate", "TFPS", "completed", "partial", "initiated", "notcommitted", "redundant")
		for _, p := range pts {
			fmt.Fprintf(ctx.Out, "%-8d %-10.1f %-11.0f %-9.0f %-10.0f %-13.0f %-10.0f\n",
				p.Rate, p.Throughput.Mean, p.Completed, p.Partial, p.Initiated,
				p.NotCommitted, p.RedundantErrors)
		}
		fmt.Fprintln(ctx.Out)
		return nil
	}
}

func runFig12(ctx RunContext) error {
	res := Fig12(ctx.Transfers, ctx.Seed)
	ctx.Record("fig12", res)
	fmt.Fprintf(ctx.Out, "# Fig12: %d transfers in one block — 13-step breakdown\n", res.Transfers)
	fmt.Fprintf(ctx.Out, "%-28s %-12s %-12s\n", "step", "first", "last")
	for _, s := range res.Steps {
		fmt.Fprintf(ctx.Out, "%-28s %-12s %-12s\n", s.Step, fmtSeconds(s.First), fmtSeconds(s.Last))
	}
	fmt.Fprintf(ctx.Out, "completed: %d/%d  total: %s\n", res.Completed, res.Transfers, fmtSeconds(res.Total))
	fmt.Fprintf(ctx.Out, "phases: transfer=%s receive=%s ack=%s\n",
		fmtSeconds(res.TransferPhase), fmtSeconds(res.ReceivePhase), fmtSeconds(res.AckPhase))
	pulls := res.TransferDataPull + res.RecvDataPull
	fmt.Fprintf(ctx.Out, "data pulls: %s (%.0f%% of total; paper: 69%%)\n\n",
		fmtSeconds(pulls), 100*pulls.Seconds()/res.Total.Seconds())
	return nil
}

func runFig13(ctx RunContext) error {
	rows := Fig13(ctx.Transfers, nil, ctx.Seed)
	ctx.Record("fig13", rows)
	fmt.Fprintf(ctx.Out, "# Fig13: %d transfers, submission spread over N blocks\n", ctx.Transfers)
	fmt.Fprintf(ctx.Out, "%-10s %-14s %-10s\n", "blocks", "completion", "completed")
	for _, r := range rows {
		fmt.Fprintf(ctx.Out, "%-10d %-14s %-10d\n", r.Blocks, fmtSeconds(r.Completion), r.Completed)
	}
	fmt.Fprintln(ctx.Out)
	return nil
}

func runGas(ctx RunContext) error {
	rows := GasTable(ctx.Seed)
	ctx.Record("gas", rows)
	fmt.Fprintln(ctx.Out, "# Gas per 100-message transaction class (§IV-A)")
	fmt.Fprintf(ctx.Out, "%-22s %-12s %-12s\n", "class", "measured", "paper")
	for _, r := range rows {
		fmt.Fprintf(ctx.Out, "%-22s %-12d %-12d\n", r.MsgType, r.Measured, r.Paper)
	}
	fmt.Fprintln(ctx.Out)
	return nil
}

func runTopo(ctx RunContext) error {
	res, err := TopologySweep(ctx.Opt, ctx.Topology, ctx.Rate, ctx.Forwarding)
	if err != nil {
		return err
	}
	ctx.Record("topo", res)
	res.Render(ctx.Out)
	fmt.Fprintln(ctx.Out)
	return nil
}

func runForward(ctx RunContext) error {
	// Latency-vs-hops: both route modes side by side from one run per
	// hop count. The default hub graph reproduces the paper-style hub
	// scenario (spoke -> hub -> spoke).
	res, err := ForwardingComparison(ctx.Opt, ctx.Topology, ctx.Rate)
	if err != nil {
		return err
	}
	ctx.Record("forward", res)
	res.Render(ctx.Out)
	fmt.Fprintln(ctx.Out)
	return nil
}

func runFailover(ctx RunContext) error {
	// Relayer failover: supervised standbys under primary-host
	// partitions of increasing duration (packet-latency and
	// cleared-backlog curves across fault windows).
	res, err := Failover(ctx.Opt, ctx.Topology, ctx.Rate)
	if err != nil {
		return err
	}
	ctx.Record("failover", res)
	res.Render(ctx.Out)
	fmt.Fprintln(ctx.Out)
	return nil
}

func runVoteScale(ctx RunContext) error {
	// Validator-scaling: the shared vote-verification engine makes
	// set size an affordable axis; blocks/s stays flat (virtual
	// timing) while wall cost grows ~linearly instead of quadratically.
	res, err := VoteScale(ctx.Opt, ctx.Topology, ctx.Rate, ctx.Validators)
	if err != nil {
		return err
	}
	ctx.Record("votescale", res)
	res.Render(ctx.Out)
	fmt.Fprintln(ctx.Out)
	return nil
}

func runMeshScale(ctx RunContext) error {
	// Serial-vs-parallel scaling: each cell runs the same full-mesh
	// scenario on both runners, checks result-fingerprint equality
	// and reports the wall-clock speedup curve.
	chains := DefaultMeshScaleChains
	if strings.HasPrefix(ctx.Topology, "mesh:") {
		n, err := strconv.Atoi(strings.TrimPrefix(ctx.Topology, "mesh:"))
		if err != nil || n < 2 {
			return fmt.Errorf("ibcbench: -experiment meshscale needs -topology mesh:n with n >= 2 (got %q)", ctx.Topology)
		}
		chains = []int{n}
	}
	res, err := MeshScale(ctx.Opt, chains, ctx.Parallel)
	if err != nil {
		return err
	}
	ctx.Record("meshscale", res)
	res.Render(ctx.Out)
	fmt.Fprintln(ctx.Out)
	return nil
}

func runWS(ctx RunContext) error {
	res := WebSocketLimit(ctx.Seed, 1000, 60)
	ctx.Record("ws", res)
	fmt.Fprintln(ctx.Out, "# WebSocket frame-limit experiment (§V)")
	fmt.Fprintf(ctx.Out, "transfers=%d framesLost=%d\n", res.Transfers, res.FramesLost)
	fmt.Fprintf(ctx.Out, "completed: %d (%.1f%%)  timed out: %d (%.1f%%)  stuck: %d (%.1f%%)\n",
		res.Completed, pctOf(res.Completed, res.Transfers),
		int(res.TimedOut), pctOf(int(res.TimedOut), res.Transfers),
		res.Stuck, pctOf(res.Stuck, res.Transfers))
	fmt.Fprintln(ctx.Out, "paper: 2.5% completed / 15.7% timed out / 81.8% stuck")
	return nil
}

func pctOf(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

func fmtSeconds(d time.Duration) string {
	return fmt.Sprintf("%.1fs", d.Seconds())
}
