// The catalogue: every figure of the paper's evaluation and every
// built-in scenario, one Entry each, in the order `ibcbench help` lists
// them. It is the one table the CLI reads: `sweep` runs the figures its
// -experiment value selects (`-experiment all` runs every figure, top to
// bottom, in the paper's presentation order), `run -name` and `search
// -name` read a built-in's spec, and `suite` runs every entry. Adding an
// experiment or a scenario is one Entry literal.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"ibcbench/internal/scenario"
	"ibcbench/internal/topo"
)

// RunContext carries the flag-derived inputs shared by every entry's
// run. Record sinks the result struct under the entry's name into the
// run's result document (a no-op sink is fine).
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

// Defaults is the context of a sweep whose flags are left unset, and
// the one `suite` runs every figure in. A built-in's run reads only
// Seed, where 0 means the spec's own seed.
var Defaults = RunContext{Opt: Options{Seeds: 3}, Seed: 42, Transfers: 5000, Topology: "hub:4", Rate: 20}

// Entry is one catalogue entry: a figure, which Selectors name to
// `sweep` (besides "all"), or a built-in scenario, whose Spec `run -name`
// and `search -name` read. Name keys the sweep's result document (a
// figure) or is the spec's name (a built-in).
type Entry struct {
	Name      string
	Selectors []string
	Desc      string
	Spec      *scenario.Spec
	// Short marks a built-in cheap enough for smoke suites (`ibcbench
	// suite -short` and the CI suite step).
	Short bool
	run   func(c RunContext) (renderer, error)
}

// renderer is an entry's result: recorded in the result document as it
// marshals, and rendered as its section of the sweep's output.
type renderer interface{ Render(w io.Writer) }

// adapt passes a driver's result on as a renderer.
func adapt[R renderer](r R, err error) (renderer, error) { return r, err }

// Run executes the entry, records its result under the entry's name and
// renders it. A run fails when one of its cells breaks an assertion its
// spec names.
func (e Entry) Run(ctx RunContext) error {
	res, err := e.run(ctx)
	if err != nil {
		return err
	}
	ctx.Record(e.Name, res)
	res.Render(ctx.Out)
	return nil
}

// Lint checks a built-in's spec the way `suite -lint` does: it
// validates, compiles, and survives an encode⇄parse round trip
// byte-identically.
func (e Entry) Lint() error {
	if _, err := scenario.Compile(*e.Spec); err != nil {
		return fmt.Errorf("compile: %w", err)
	}
	enc, err := scenario.Encode(*e.Spec)
	if err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	back, err := scenario.Parse(enc)
	if err != nil {
		return fmt.Errorf("re-parse: %w", err)
	}
	if enc2, err := scenario.Encode(back); err != nil || string(enc) != string(enc2) {
		return fmt.Errorf("encode⇄parse round trip is not canonical (%v)", err)
	}
	return nil
}

// builtin makes a catalogue entry of a named spec. Its run is the spec
// at the context's seed, and its result the run's report.
func builtin(desc string, short bool, s scenario.Spec) Entry {
	return Entry{Name: s.Name, Desc: desc, Spec: &s, Short: short,
		run: func(c RunContext) (renderer, error) {
			return adapt(runOne(s.Name, s, c.Seed, func(_ int, rep *scenario.Report) *scenario.Report { return rep }))
		}}
}

// named gives a sweep's cell a built-in's name and seed.
func named(s scenario.Spec, name string, seed int64) scenario.Spec {
	s.Name, s.Seed = name, seed
	return s
}

func intp(i int) *int { return &i }

// catalogue holds the figures in execution order, then the built-ins.
var catalogue = []Entry{
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
	// The failover figure shares its name with the failover built-in:
	// the figure's selector and result-document key and the built-in's
	// spec name all reach committed outputs, and each subcommand reads
	// only one kind of entry.
	{Name: "failover", Selectors: []string{"failover"},
		Desc: "relayer failover: supervised standbys under primary-host partitions of increasing duration",
		run:  func(c RunContext) (renderer, error) { return adapt(Failover(c.Opt, c.Topology, c.Rate)) }},
	{Name: "votescale", Selectors: []string{"votescale"},
		Desc: "validator-set scaling sweep: block rate, latency and completion vs set size (host cost: BenchmarkVoteFanout)",
		run:  func(c RunContext) (renderer, error) { return adapt(VoteScale(c.Opt, c.Topology, c.Rate, c.Validators)) }},
	{Name: "ws", Selectors: []string{"ws"},
		Desc: "WebSocket frame-limit experiment: completion under event-subscription frame loss (§V)",
		run:  func(c RunContext) (renderer, error) { return adapt(WebSocketLimit(c.Seed)) }},

	// The paper's minimal testbed: two chains, one relayer, a trickle of
	// transfers.
	builtin("two chains, one relayer, one window of transfers", true, scenario.Spec{
		Name:     "quickstart",
		Topology: scenario.TopologySpec{Preset: "two"},
		Workload: scenario.WorkloadSpec{Rate: 1, Windows: 1},
		Seed:     1,
	}),

	// The CI topology smoke (`sweep -experiment topo -topology hub:3
	// -rate 5 -windows 3`), demo route included.
	builtin("hub:3 sweep workload, 5 rps per edge plus the demo route", true,
		named(topologySpec(Options{Windows: 3}, topo.Hub(3), "hub:3", 5, false), "hub", 500)),

	// Full mesh under uniform load (`sweep -experiment topo -topology
	// mesh:3 -rate 4 -windows 4`).
	builtin("mesh:3 under 4 rps on every edge", false,
		named(topologySpec(Options{Windows: 4}, topo.Mesh(3), "mesh:3", 4, false), "mesh", 400)),

	// One multi-hop route in both modes across a 3-chain line —
	// sequential legs vs packet-forward middleware (the two-hop row of
	// `sweep -experiment forward -topology line:3 -rate 4`).
	builtin("line:3 route comparison, sequential legs vs packet forwarding", true,
		named(forwardingSpec(Options{}, "line:3", []int{0, 1, 2}, 4), "pfmroute", 1)),

	// A sequential route that comes home: each leg spends what the last
	// one delivered, so the tokens go out as vouchers of vouchers and
	// come back unescrowed hop by hop, the ICS-20 unwind no one-way
	// route reaches.
	builtin("line:3 round trip 0->1->2->1->0, each leg spending what the last delivered", true, scenario.Spec{
		Name:     "roundtrip",
		Topology: scenario.TopologySpec{Preset: "line:3"},
		Workload: scenario.WorkloadSpec{Routes: []scenario.RouteSpec{
			{Path: []int{0, 1, 2, 1, 0}, Transfers: 4},
		}},
		Seed: 1,
	}),

	// Geo-distributed hub, standby relayers, a mid-run relayer blackout
	// plus a latency spike, healed before the deadline. Declares a fault
	// space so it doubles as the default chaos-search demo.
	builtin("geo hub with standby relayers under partition + latency chaos", false, scenario.Spec{
		Name:     "failover",
		Topology: scenario.TopologySpec{Preset: "hub:2"},
		Regions:  "3wan",
		Deploy:   scenario.DeploySpec{Standby: true},
		Workload: scenario.WorkloadSpec{Rate: 3, Windows: 4},
		Chaos: []scenario.EventSpec{
			{At: scenario.Duration(12 * time.Second), Kind: "partition", Edge: 0, Relayer: intp(0)},
			{At: scenario.Duration(30 * time.Second), Kind: "latency-spike", Edge: 1, ExtraLatency: scenario.Duration(100 * time.Millisecond)},
			{At: scenario.Duration(90 * time.Second), Kind: "latency-spike", Edge: 1},
			{At: scenario.Duration(3 * time.Minute), Kind: "heal", Edge: 0, Relayer: intp(0)},
		},
		Faults: &scenario.FaultSpace{
			Kinds:          []string{"partition", "latency-spike", "relayer-pause"},
			MaxEvents:      3,
			Horizon:        scenario.Duration(45 * time.Second),
			MaxFaultWindow: scenario.Duration(40 * time.Second),
		},
		Seed:  42,
		Until: scenario.Duration(6 * time.Minute),
	}),

	// A plain ICS-20 timeout, no middleware: the only relayer's host is
	// cut off for longer than the packets' timeout, so once the link
	// heals the relayer proves the timeouts on the source and the
	// transfer module refunds the sender. Its RPC replies lost to the
	// partition run the client timeouts out.
	builtin("two chains, relayer cut off past the packet timeout, then healed (timeout refunds)", true, scenario.Spec{
		Name:     "plaintimeout",
		Topology: scenario.TopologySpec{Preset: "two"},
		Deploy:   scenario.DeploySpec{ClearIntervalBlocks: 1},
		Workload: scenario.WorkloadSpec{Routes: []scenario.RouteSpec{
			{Path: []int{0, 1}, Transfers: 3, TimeoutBlocks: 2},
		}},
		Chaos: []scenario.EventSpec{
			{At: scenario.Duration(2 * time.Second), Kind: "partition", Edge: 0, Relayer: intp(0)},
			{At: scenario.Duration(45 * time.Second), Kind: "heal", Edge: 0, Relayer: intp(0)},
		},
		Seed: 3,
	}),

	// Hop-timeout unwinding: a forwarded route with a one-block timeout
	// margin forces mid-route timeouts; the refund invariant must still
	// hold once everything settles.
	builtin("forwarded route under a tiny hop-timeout margin (refund unwinding)", false, timeoutStorm("timeoutstorm", false)),

	// The same storm under full proofs: every hop timeout's MsgTimeout
	// carries a non-membership proof of the destination receipt, the leg
	// no proof-free run reaches.
	builtin("timeoutstorm under full Merkle proofs (non-membership timeout proofs)", true, timeoutStorm("timeoutproofs", true)),
}

// timeoutStorm is the hop-timeout storm: three forwarded transfers
// across line:3 with a one-block timeout margin.
func timeoutStorm(name string, fullProofs bool) scenario.Spec {
	return scenario.Spec{
		Name:     name,
		Topology: scenario.TopologySpec{Preset: "line:3"},
		Deploy:   scenario.DeploySpec{FullProofs: fullProofs},
		Workload: scenario.WorkloadSpec{Routes: []scenario.RouteSpec{
			{Path: []int{0, 1, 2}, Transfers: 3, Forwarded: true, TimeoutBlocks: 1},
		}},
		Seed:         7,
		SettleBlocks: 24,
	}
}

// Catalogue returns every entry: the figures in execution order, then
// the built-ins.
func Catalogue() []Entry { return slices.Clone(catalogue) }

// Selectors returns every valid `-experiment` value (without "all") in
// first-use order — the CLI help string.
func Selectors() []string {
	var out []string
	for _, e := range catalogue {
		for _, s := range e.Selectors {
			if !slices.Contains(out, s) {
				out = append(out, s)
			}
		}
	}
	return out
}

// Select resolves an `-experiment` value to the figures it triggers, in
// execution order. "all" selects every figure; a built-in's name or an
// unknown selector is an error.
func Select(sel string) ([]Entry, error) {
	var out []Entry
	for _, e := range catalogue {
		if len(e.Selectors) > 0 && (sel == "all" || slices.Contains(e.Selectors, sel)) {
			out = append(out, e)
		}
	}
	if len(out) > 0 {
		return out, nil
	}
	if _, err := Builtin(sel); err == nil {
		return nil, fmt.Errorf("experiments: %s is a built-in scenario, not a figure: run it with `ibcbench run -name %s`", sel, sel)
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (valid: %s|all)", sel, strings.Join(Selectors(), "|"))
}

// Builtin returns the spec of the built-in scenario called name. A
// figure's name or selector, or an unknown name, is an error.
func Builtin(name string) (scenario.Spec, error) {
	var names []string
	figure := ""
	for _, e := range catalogue {
		switch {
		case e.Spec != nil && e.Name == name:
			return *e.Spec, nil
		case e.Spec != nil:
			names = append(names, e.Name)
		case slices.Contains(e.Selectors, name):
			figure = name
		case e.Name == name:
			figure = e.Selectors[0]
		}
	}
	if figure != "" {
		return scenario.Spec{}, fmt.Errorf("experiments: %s is a figure, not a scenario: run it with `ibcbench sweep -experiment %s`", name, figure)
	}
	return scenario.Spec{}, fmt.Errorf("experiments: unknown scenario %q (built-in: %s)", name, strings.Join(names, ", "))
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
	rows, err := Fig13(c.Transfers, c.Seed)
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
		fmt.Fprintf(w, "%-22s %-12s\n", "class", "measured")
		for _, r := range rows {
			fmt.Fprintf(w, "%-22s %-12d\n", r.MsgType, r.Measured)
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
