// The experiment registry: every `-experiment` entrypoint as a named
// entry with its selectors, description and driver, in the order the
// paper presents them. The CLI derives its help text, the sweep driver
// and `-experiment all` from this table instead of a hand-maintained
// if-chain, so adding an experiment is one Entry literal.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
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
	Out        io.Writer
	Record     func(key string, v any)
}

// Entry is one registered experiment: Name keys the result document,
// Selectors lists every `-experiment` value that triggers it (besides
// "all"), and run executes it.
type Entry struct {
	Name      string
	Selectors []string
	Desc      string
	run       func(c RunContext) (renderer, error)
}

// renderer is an experiment's result: recorded in the result document
// as it marshals, and rendered as its section of the sweep's output.
type renderer interface{ Render(w io.Writer) }

// adapt passes a driver's result on as a renderer.
func adapt[R renderer](r R, err error) (renderer, error) { return r, err }

// Run executes the entry, records its result under the entry's name and
// renders it.
func (e Entry) Run(ctx RunContext) error {
	res, err := e.run(ctx)
	if err != nil {
		return err
	}
	ctx.Record(e.Name, res)
	res.Render(ctx.Out)
	return nil
}

// registry holds the entries in execution order — `-experiment all`
// runs them top to bottom, matching the paper's presentation order.
var registry = []Entry{
	{Name: "tendermint", Selectors: []string{"fig6", "fig7", "table1"},
		Desc: "single-chain Tendermint sweep: commit latency, throughput and the execution summary (Figs. 6-7, Table I)",
		run:  func(c RunContext) (renderer, error) { return adapt(Tendermint(c.Opt)) }},
	{Name: "fig8", Selectors: []string{"fig8", "fig10"},
		Desc: "one relayer, WAN: transfer throughput and completion breakdown vs input rate (Figs. 8, 10)",
		run:  func(c RunContext) (renderer, error) { return relayerSection("fig8", c.Opt, 1, false) }},
	{Name: "fig8-lan", Selectors: []string{"fig8-lan", "fig10"},
		Desc: "one relayer, LAN latencies: the fig8 sweep without WAN delay",
		run:  func(c RunContext) (renderer, error) { return relayerSection("fig8-lan", c.Opt, 1, true) }},
	{Name: "fig9", Selectors: []string{"fig9", "fig11"},
		Desc: "two redundant relayers, WAN: throughput vs input rate plus redundant-submission errors (Figs. 9, 11)",
		run:  func(c RunContext) (renderer, error) { return relayerSection("fig9", c.Opt, 2, false) }},
	{Name: "fig9-lan", Selectors: []string{"fig9-lan", "fig11"},
		Desc: "two redundant relayers, LAN latencies: the fig9 sweep without WAN delay",
		run:  func(c RunContext) (renderer, error) { return relayerSection("fig9-lan", c.Opt, 2, true) }},
	{Name: "fig12", Selectors: []string{"fig12"},
		Desc: "one-block burst: 13-step relay breakdown of N transfers submitted in a single block (Fig. 12)",
		run:  func(c RunContext) (renderer, error) { return adapt(Fig12(c.Transfers, c.Seed)) }},
	{Name: "fig13", Selectors: []string{"fig13"},
		Desc: "submission spread: completion time of N transfers spread over increasing block counts (Fig. 13)",
		run:  func(c RunContext) (renderer, error) { return fig13Section(c) }},
	{Name: "gas", Selectors: []string{"gas"},
		Desc: "gas per 100-message transaction class vs the paper's measurements (§IV-A)",
		run:  func(c RunContext) (renderer, error) { return gasSection(c.Seed) }},
	{Name: "topo", Selectors: []string{"topo"},
		Desc: "multi-chain topology sweep (-topology two|line:n|hub:n|mesh:n) with optional forwarding and geo regions",
		run: func(c RunContext) (renderer, error) {
			return adapt(TopologySweep(c.Opt, c.Topology, c.Rate, c.Forwarding))
		}},
	{Name: "forward", Selectors: []string{"forward"},
		Desc: "latency vs hop count: sequential-leg routes against the packet-forward middleware, side by side",
		run:  func(c RunContext) (renderer, error) { return adapt(ForwardingComparison(c.Opt, c.Topology, c.Rate)) }},
	{Name: "failover", Selectors: []string{"failover"},
		Desc: "relayer failover: supervised standbys under primary-host partitions of increasing duration",
		run:  func(c RunContext) (renderer, error) { return adapt(Failover(c.Opt, c.Topology, c.Rate)) }},
	{Name: "votescale", Selectors: []string{"votescale"},
		Desc: "validator-set scaling sweep: block rate, latency and completion vs set size (host cost: BenchmarkVoteFanout)",
		run:  func(c RunContext) (renderer, error) { return adapt(VoteScale(c.Opt, c.Topology, c.Rate, c.Validators)) }},
	{Name: "ws", Selectors: []string{"ws"},
		Desc: "WebSocket frame-limit experiment: completion under event-subscription frame loss (§V)",
		run:  func(c RunContext) (renderer, error) { return adapt(WebSocketLimit(c.Seed, 1000, 60)) }},
}

// Registry returns the experiment table in execution order.
func Registry() []Entry { return slices.Clone(registry) }

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

// section is a result rendered with its entry's inputs: the result
// document records data, and render writes the section.
type section struct {
	data   any
	render func(w io.Writer)
}

func (s section) Render(w io.Writer)           { s.render(w) }
func (s section) MarshalJSON() ([]byte, error) { return json.Marshal(s.data) }

// relayerSection is one entry of the relayer-sweep family (Figs. 8-11):
// a relayer count and a LAN/WAN switch.
func relayerSection(name string, opt Options, relayers int, lan bool) (renderer, error) {
	pts, err := RelayerSweep(opt, relayers, lan)
	return section{pts, func(w io.Writer) {
		fmt.Fprintf(w, "# %s: %d relayer(s), lan=%v (Figs. 8-11)\n", name, relayers, lan)
		fmt.Fprintf(w, "%-8s %-10s %-11s %-9s %-10s %-13s %-10s\n",
			"rate", "TFPS", "completed", "partial", "initiated", "notcommitted", "redundant")
		for _, p := range pts {
			fmt.Fprintf(w, "%-8d %-10.1f %-11.0f %-9.0f %-10.0f %-13.0f %-10.0f\n",
				p.Rate, p.Throughput.Mean, p.Completed, p.Partial, p.Initiated,
				p.NotCommitted, p.RedundantErrors)
		}
		fmt.Fprintln(w)
	}}, err
}

func fig13Section(c RunContext) (renderer, error) {
	rows, err := Fig13(c.Transfers, nil, c.Seed)
	return section{rows, func(w io.Writer) {
		fmt.Fprintf(w, "# Fig13: %d transfers, submission spread over N blocks\n", c.Transfers)
		fmt.Fprintf(w, "%-10s %-14s %-10s\n", "blocks", "completion", "completed")
		for _, r := range rows {
			fmt.Fprintf(w, "%-10d %-14s %-10d\n", r.Blocks, fmtSeconds(r.Completion), r.Completed)
		}
		fmt.Fprintln(w)
	}}, err
}

func gasSection(seed int64) (renderer, error) {
	rows, err := GasTable(seed)
	return section{rows, func(w io.Writer) {
		fmt.Fprintln(w, "# Gas per 100-message transaction class (§IV-A)")
		fmt.Fprintf(w, "%-22s %-12s %-12s\n", "class", "measured", "paper")
		for _, r := range rows {
			fmt.Fprintf(w, "%-22s %-12d %-12d\n", r.MsgType, r.Measured, r.Paper)
		}
		fmt.Fprintln(w)
	}}, err
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
