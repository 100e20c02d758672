// Package experiments contains one driver per table and figure of the
// paper's evaluation (§IV) and per topology sweep. Every driver is a set
// of scenario specs, one per cell, run through scenario.Run (specGrid)
// under the per-commit checks and the assertions each spec names, and a
// reducer over the reports and the quiescent deployments they carry.
// The catalogue (registry.go) holds every figure and every built-in
// scenario in one table, the one the CLI's help, run, search, suite and
// sweep read.
package experiments

import (
	"fmt"
	"io"
	"slices"
	"time"

	"ibcbench/internal/app"
	"ibcbench/internal/metrics"
	"ibcbench/internal/scenario"
	"ibcbench/internal/simconf"
	"ibcbench/internal/tendermint/store"
	"ibcbench/internal/topo"
	"ibcbench/internal/workload"
)

// Options bounds an experiment's cost. The paper runs 20 executions per
// configuration; tests and benches default lower.
type Options struct {
	Seeds int
	// Rates overrides the swept input rates (requests/second).
	Rates []int
	// Windows is the number of submission block-windows.
	Windows int
	// Regions optionally places topology deployments on a geo region
	// preset (see geo.ParseSpec; "" = the paper's uniform WAN).
	Regions string
	// Validators overrides every chain's validator-set size in topology
	// deployments (0 = the paper's five); the votescale experiment sweeps
	// this axis explicitly.
	Validators int
}

func (o Options) seeds() int {
	if o.Seeds <= 0 {
		return 3
	}
	return o.Seeds
}

// windows resolves the submission-window count against a driver's default.
func (o Options) windows(def int) int {
	if o.Windows <= 0 {
		return def
	}
	return o.Windows
}

// specGrid runs every (variant, seed) cell of a sweep through
// scenario.Run on the scenario.ParallelMap pool: specs[v] is variant v's
// scenario and seedOf(v, i) its i-th seed. reduce reads one cell's report,
// and the quiescent deployment it carries, on the worker that ran it, so
// no deployment outlives its cell. Each cell is an independent
// deterministic simulation, so the pool width never changes a result.
// Results come back grouped by variant, in seed order; the first cell in
// input order that fails to run or breaks one of its spec's assertions
// aborts the sweep.
func specGrid[R any](opt Options, label string, specs []scenario.Spec,
	seedOf func(variant, i int) int64, reduce func(variant int, rep *scenario.Report) R) ([][]R, error) {
	type cell struct {
		variant int
		seed    int64
	}
	var cells []cell
	for v := range specs {
		for i := 0; i < opt.seeds(); i++ {
			cells = append(cells, cell{v, seedOf(v, i)})
		}
	}
	type outcome struct {
		res R
		err error
	}
	outcomes := scenario.ParallelMap(cells, func(c cell) outcome {
		rep, err := scenario.Run(specs[c.variant], c.seed, nil)
		if err != nil {
			return outcome{err: err}
		}
		if !rep.Passed() {
			return outcome{err: fmt.Errorf("%d violation(s), first: %s", len(rep.Violations), rep.Violations[0])}
		}
		return outcome{res: reduce(c.variant, rep)}
	})
	byVariant := make([][]R, len(specs))
	for i, o := range outcomes {
		if o.err != nil {
			return nil, fmt.Errorf("experiments: %s (cell %d, seed %d): %w", label, i, cells[i].seed, o.err)
		}
		byVariant[cells[i].variant] = append(byVariant[cells[i].variant], o.res)
	}
	return byVariant, nil
}

// runOne is specGrid over one spec at one seed.
func runOne[R any](label string, spec scenario.Spec, seed int64, reduce func(int, *scenario.Report) R) (R, error) {
	runs, err := specGrid(Options{Seeds: 1}, label, []scenario.Spec{spec}, func(_, _ int) int64 { return seed }, reduce)
	if err != nil {
		var zero R
		return zero, err
	}
	return runs[0][0], nil
}

// result is the reducer of a sweep that reads only each cell's result.
func result(_ int, rep *scenario.Report) *topo.Result { return rep.Result }

// topoSpec is the part every topology driver's spec shares: the preset
// graph on opt's region preset and validator-set size, with every edge
// sustaining rate requests/second for the given windows.
func (o Options) topoSpec(name, preset string, rate, windows int) scenario.Spec {
	return scenario.Spec{
		Name:     name,
		Topology: scenario.TopologySpec{Preset: preset},
		Regions:  o.Regions,
		Deploy:   scenario.DeploySpec{Validators: o.Validators},
		Workload: scenario.WorkloadSpec{Rate: rate, Windows: windows},
	}
}

// testbedSpec is the paper's two-chain testbed (§III-C: 200 ms WAN,
// five validators per chain, one relayer) carrying workload on its one
// edge.
func testbedSpec(name string, workload scenario.WorkloadSpec) scenario.Spec {
	return scenario.Spec{Name: name, Topology: scenario.TopologySpec{Preset: "two"}, Workload: workload}
}

// --- Fig. 6 / Fig. 7 / Table I: Tendermint-side throughput sweep -------------

// Table1Row is one row of Table I.
type Table1Row struct {
	Rate      int
	Requested int
	Submitted int
	Committed int
}

// TendermintResult bundles the three artifacts of the submission sweep.
type TendermintResult struct {
	Fig6   Series // throughput violins (TFPS)
	Fig7   Series // mean block interval (seconds)
	Table1 []Table1Row
}

// DefaultTendermintRates is a representative subset of the paper's
// 250–14,000 RPS sweep.
var DefaultTendermintRates = []int{250, 500, 1000, 2000, 3000, 5000, 7000, 9000, 11000, 13000}

// Tendermint runs the MsgTransfer inclusion sweep (Figs. 6, 7; Table I):
// submit transfer batches for `Windows` consecutive block windows and
// measure inclusion throughput and block intervals.
func Tendermint(opt Options) (TendermintResult, error) {
	rates := opt.Rates
	if rates == nil {
		rates = DefaultTendermintRates
	}
	windows := opt.windows(15)
	res := TendermintResult{
		Fig6: Series{Name: "Fig6 Tendermint throughput", XLabel: "rate(rps)", YLabel: "TFPS"},
		Fig7: Series{Name: "Fig7 block interval", XLabel: "rate(rps)", YLabel: "seconds"},
	}
	type run struct {
		tput     float64
		hasTput  bool
		interval float64
		stats    workload.Stats
		commit   int
	}
	specs := make([]scenario.Spec, len(rates))
	for v, rate := range rates {
		specs[v] = tendermintSpec(rate, windows)
	}
	seedOf := func(v, i int) int64 { return int64(1000*rates[v] + i) }
	runs, err := specGrid(opt, "tendermint", specs, seedOf, func(_ int, rep *scenario.Report) run {
		st := rep.Deployment.Chains[0].Store
		committed, span := committedTransfers(st, int64(windows))
		r := run{interval: meanInterval(st).Seconds(), stats: rep.Result.Edges[0].Workload, commit: committed}
		if span > 0 {
			r.tput = float64(committed) / span.Seconds()
			r.hasTput = true
		}
		return r
	})
	if err != nil {
		return res, err
	}
	for i, rate := range rates {
		var tput, intervals []float64
		row := Table1Row{Rate: rate}
		for _, r := range runs[i] {
			if r.hasTput {
				tput = append(tput, r.tput)
			}
			intervals = append(intervals, r.interval)
			row.Requested += r.stats.Requested
			row.Submitted += r.stats.Submitted
			row.Committed += r.commit
		}
		res.Fig6.Add(float64(rate), metrics.Summarize(tput))
		res.Fig7.Add(float64(rate), metrics.Summarize(intervals))
		res.Table1 = append(res.Table1, row)
	}
	return res, nil
}

// Render writes Figs. 6 and 7 and Table I.
func (r TendermintResult) Render(w io.Writer) {
	r.Fig6.Render(w)
	fmt.Fprintln(w)
	r.Fig7.Render(w)
	fmt.Fprintln(w, "\n# Table I: execution summary")
	fmt.Fprintf(w, "%-10s %-12s %-14s %-12s\n", "rate", "requested", "submitted", "committed")
	for _, row := range r.Table1 {
		fmt.Fprintf(w, "%-10d %-12d %-8d(%.1f%%) %-8d(%.1f%%)\n", row.Rate, row.Requested,
			row.Submitted, pctOf(row.Submitted, row.Requested),
			row.Committed, pctOf(row.Committed, row.Submitted))
	}
	fmt.Fprintln(w)
}

// tendermintSpec is one rate's cell of the inclusion sweep. It stops
// once chain 0 commits windows+2 blocks (at 13 000 rps a block takes
// 38 s, so no fixed deadline stands in), within 16 stretched windows of
// slack. It names token-conservation only: it stops mid-flight, with
// packets still to relay.
func tendermintSpec(rate, windows int) scenario.Spec {
	s := testbedSpec(fmt.Sprintf("tendermint-%drps", rate), scenario.WorkloadSpec{Rate: rate, Windows: windows})
	s.UntilHeight = int64(windows) + 2
	s.Until = scenario.Duration(time.Duration(windows+4) * simconf.MinBlockInterval * 16)
	s.Assertions = []string{scenario.AssertConservation}
	return s
}

// committedTransfers counts MsgTransfer messages committed in the first
// `windows` non-empty blocks and the time they span.
func committedTransfers(st *store.Store, windows int64) (int, time.Duration) {
	var (
		count      int
		first      = time.Duration(-1)
		last       time.Duration
		seenBlocks int64
	)
	for h := int64(1); h <= st.Height() && seenBlocks < windows; h++ {
		cb, err := st.Block(h)
		if err != nil {
			break
		}
		n := 0
		for _, tx := range cb.Block.Data {
			if t, ok := tx.(*app.Tx); ok {
				for _, m := range t.Msgs {
					if m.MsgType() == "MsgTransfer" {
						n++
					}
				}
			}
		}
		if n == 0 && first < 0 {
			continue // skip warm-up empty blocks
		}
		seenBlocks++
		if first < 0 {
			first = cb.Block.Header.Time
		}
		last = cb.Block.Header.Time
		count += n
	}
	if first < 0 || last <= first {
		return count, simconf.MinBlockInterval * time.Duration(windows)
	}
	return count, last - first
}

// meanInterval averages inter-block times over non-genesis blocks: the
// time from block 1 to the last, over the intervals between.
func meanInterval(st *store.Store) time.Duration {
	h := st.Height()
	if h < 2 {
		return 0
	}
	first, _ := st.Block(1)
	last, _ := st.Block(h)
	return (last.Block.Header.Time - first.Block.Header.Time) / time.Duration(h-1)
}

// --- Fig. 8 / Fig. 9 / Fig. 10 / Fig. 11: relayer throughput ------------------

// RelayerPoint is one measured configuration of the relayer sweep.
type RelayerPoint struct {
	Rate       int
	Relayers   int
	LAN        bool
	Throughput metrics.Dist // TFPS across seeds
	// Mean completion-status counts (Figs. 10/11).
	Completed    float64
	Partial      float64
	Initiated    float64
	NotCommitted float64
	// Redundant errors per run (two-relayer pathology).
	RedundantErrors float64
}

// DefaultRelayerRates is a representative subset of the paper's
// 20–300 RPS sweep.
var DefaultRelayerRates = []int{20, 60, 100, 140, 180, 220, 300}

// RelayerSweep measures end-to-end cross-chain throughput within 50
// source-chain blocks (Figs. 8–11).
func RelayerSweep(opt Options, relayers int, lan bool) ([]RelayerPoint, error) {
	rates := opt.Rates
	if rates == nil {
		rates = DefaultRelayerRates
	}
	windows := opt.windows(50)
	specs := make([]scenario.Spec, len(rates))
	for v, rate := range rates {
		specs[v] = relayerSpec(rate, windows, relayers, lan)
	}
	// A cell reduces to its own point: counts, redundant errors and its
	// throughput sample; the seeds' points then average.
	type cell struct {
		RelayerPoint
		tput []float64
	}
	seedOf := func(v, i int) int64 { return int64(7000*rates[v] + 31*relayers + i) }
	runs, err := specGrid(opt, "relayer sweep", specs, seedOf, func(_ int, rep *scenario.Report) (c cell) {
		e := rep.Result.Edges[0]
		c.Completed = float64(e.Completion[metrics.StatusCompleted])
		c.Partial = float64(e.Completion[metrics.StatusPartial])
		c.Initiated = float64(e.Completion[metrics.StatusInitiated])
		c.NotCommitted = float64(e.Completion[metrics.StatusNotCommitted])
		for _, rs := range e.Relayers {
			c.RedundantErrors += float64(rs.RedundantErrors)
		}
		if now := rep.Result.Duration; now > 0 {
			c.tput = []float64{c.Completed / now.Seconds()}
		}
		return c
	})
	if err != nil {
		return nil, err
	}
	var out []RelayerPoint
	for i, rate := range rates {
		pt := RelayerPoint{Rate: rate, Relayers: relayers, LAN: lan}
		var tputs []float64
		for _, c := range runs[i] {
			tputs = append(tputs, c.tput...)
			pt.Completed += c.Completed
			pt.Partial += c.Partial
			pt.Initiated += c.Initiated
			pt.NotCommitted += c.NotCommitted
			pt.RedundantErrors += c.RedundantErrors
		}
		n := float64(opt.seeds())
		pt.Completed /= n
		pt.Partial /= n
		pt.Initiated /= n
		pt.NotCommitted /= n
		pt.RedundantErrors /= n
		pt.Throughput = metrics.Summarize(tputs)
		out = append(out, pt)
	}
	return out, nil
}

// relayerSpec is one rate's cell of the relayer sweep: `relayers`
// relayers on the two-chain testbed, on the LAN if lan, stopped once
// chain 0 commits `windows` blocks. It names token-conservation only: it
// stops mid-flight, with packets still to relay.
func relayerSpec(rate, windows, relayers int, lan bool) scenario.Spec {
	s := testbedSpec(fmt.Sprintf("relayer-%drps-%dr", rate, relayers), scenario.WorkloadSpec{Rate: rate, Windows: windows})
	s.Deploy.RelayersPerEdge = relayers
	if lan {
		s.Name += "-lan"
		s.Regions = "lan"
	}
	s.UntilHeight = int64(windows)
	s.Assertions = []string{scenario.AssertConservation}
	return s
}

// --- Fig. 12: 13-step latency breakdown ---------------------------------------

// StepSpan is one step's activity window across all packets.
type StepSpan struct {
	Step  metrics.Step
	First time.Duration
	Last  time.Duration
}

// Fig12Result is the step breakdown of a single-block batch.
type Fig12Result struct {
	Transfers int
	Steps     []StepSpan
	// Total is the elapsed time from first broadcast to last completion.
	Total time.Duration
	// Phase durations (transfer / receive / ack) and the two data pulls.
	TransferPhase    time.Duration
	ReceivePhase     time.Duration
	AckPhase         time.Duration
	TransferDataPull time.Duration
	RecvDataPull     time.Duration
	Completed        int
}

// Fig12 submits `transfers` requests within one block and reports the
// 13-step breakdown. The paper's run uses 5,000 transfers.
func Fig12(transfers int, seed int64) (Fig12Result, error) {
	return runOne("fig12", burstSpec(transfers, 1), seed, func(_ int, rep *scenario.Report) Fig12Result {
		return fig12(transfers, rep.Deployment.Links[0].Tracker)
	})
}

// burstSpec is Figs. 12 and 13's cell: `transfers` spread over `blocks`
// submission windows, run 45 virtual minutes, to completion.
func burstSpec(transfers, blocks int) scenario.Spec {
	s := testbedSpec(fmt.Sprintf("burst-%dblocks", blocks), scenario.WorkloadSpec{Transfers: transfers, Windows: blocks})
	s.Until = scenario.Duration(45 * time.Minute)
	return s
}

// Render writes the breakdown and its phases.
func (r Fig12Result) Render(w io.Writer) {
	fmt.Fprintf(w, "# Fig12: %d transfers in one block — 13-step breakdown\n", r.Transfers)
	fmt.Fprintf(w, "%-28s %-12s %-12s\n", "step", "first", "last")
	for _, s := range r.Steps {
		fmt.Fprintf(w, "%-28s %-12s %-12s\n", s.Step, fmtSeconds(s.First), fmtSeconds(s.Last))
	}
	fmt.Fprintf(w, "completed: %d/%d  total: %s\n", r.Completed, r.Transfers, fmtSeconds(r.Total))
	fmt.Fprintf(w, "phases: transfer=%s receive=%s ack=%s\n",
		fmtSeconds(r.TransferPhase), fmtSeconds(r.ReceivePhase), fmtSeconds(r.AckPhase))
	pulls := r.TransferDataPull + r.RecvDataPull
	fmt.Fprintf(w, "data pulls: %s (%.0f%% of total)\n\n",
		fmtSeconds(pulls), 100*pulls.Seconds()/r.Total.Seconds())
}

// fig12 reads the step breakdown off a finished burst's tracker.
func fig12(transfers int, t *metrics.Tracker) Fig12Result {
	res := Fig12Result{Transfers: transfers}
	res.Completed = t.CompletionCounts()[metrics.StatusCompleted]
	var firstBroadcast, lastAck time.Duration
	for s := metrics.Step(1); int(s) <= metrics.NumSteps; s++ {
		first, last, ok := t.StepSpan(s)
		if !ok {
			continue
		}
		res.Steps = append(res.Steps, StepSpan{Step: s, First: first, Last: last})
		if s == metrics.StepTransferBroadcast {
			firstBroadcast = first
		}
		if s == metrics.StepAckConfirmation {
			lastAck = last
		}
	}
	res.Total = lastAck - firstBroadcast
	phase := func(from, to metrics.Step) time.Duration {
		_, lastTo, ok2 := t.StepSpan(to)
		_, lastFrom, ok1 := t.StepSpan(from)
		if !ok1 || !ok2 {
			return 0
		}
		return lastTo - lastFrom
	}
	res.TransferPhase = phase(metrics.StepTransferBroadcast, metrics.StepTransferDataPull)
	res.ReceivePhase = phase(metrics.StepTransferDataPull, metrics.StepRecvDataPull)
	res.AckPhase = phase(metrics.StepRecvDataPull, metrics.StepAckConfirmation)
	res.TransferDataPull = phase(metrics.StepTransferConfirmation, metrics.StepTransferDataPull)
	res.RecvDataPull = phase(metrics.StepRecvConfirmation, metrics.StepRecvDataPull)
	return res
}

// --- Fig. 13: submission strategies --------------------------------------------

// Fig13Row is one submission strategy's outcome.
type Fig13Row struct {
	Blocks     int
	Completion time.Duration // first broadcast -> last completion
	Completed  int
	Transfers  int `json:"-"`
}

// DefaultStrategies mirrors the paper: split 5,000 transfers over
// 1..64 blocks.
var DefaultStrategies = []int{1, 2, 4, 8, 16, 32, 64}

// Fig13 measures completion latency for each of DefaultStrategies, one
// run per strategy at seed+blocks.
func Fig13(transfers int, seed int64) ([]Fig13Row, error) {
	strategies := DefaultStrategies
	specs := make([]scenario.Spec, len(strategies))
	for v, blocks := range strategies {
		specs[v] = burstSpec(transfers, blocks)
	}
	seedOf := func(v, _ int) int64 { return seed + int64(strategies[v]) }
	runs, err := specGrid(Options{Seeds: 1}, "fig13", specs, seedOf, func(v int, rep *scenario.Report) Fig13Row {
		t := rep.Deployment.Links[0].Tracker
		first, _, ok1 := t.StepSpan(metrics.StepTransferBroadcast)
		_, last, ok2 := t.StepSpan(metrics.StepAckConfirmation)
		row := Fig13Row{Blocks: strategies[v], Completed: t.CompletionCounts()[metrics.StatusCompleted], Transfers: transfers}
		if ok1 && ok2 {
			row.Completion = last - first
		}
		return row
	})
	if err != nil {
		return nil, err
	}
	out := make([]Fig13Row, len(runs))
	for v, r := range runs {
		out[v] = r[0]
	}
	return out, nil
}

// --- Gas table (§IV-A) ---------------------------------------------------------

// GasRow reports measured gas for a 100-message transaction class.
type GasRow struct {
	MsgType  string
	Measured uint64
}

// gasClasses are the transaction classes of the gas table, in its order.
var gasClasses = []string{"MsgTransfer", "MsgRecvPacket", "MsgAcknowledgement"}

// GasTable measures per-class gas on a live run of 100 transfers.
func GasTable(seed int64) ([]GasRow, error) {
	return runOne("gas", gasSpec(), seed, func(_ int, rep *scenario.Report) []GasRow {
		got := map[string]uint64{}
		for _, c := range rep.Deployment.Chains {
			for h := int64(1); h <= c.Store.Height(); h++ {
				cb, _ := c.Store.Block(h)
				for i, tx := range cb.Block.Data {
					t, ok := tx.(*app.Tx)
					if !ok || len(t.Msgs) < 100 || !cb.Results[i].IsOK() {
						continue
					}
					kind := t.Msgs[len(t.Msgs)-1].MsgType() // last msg: batch class
					if slices.Contains(gasClasses, kind) && got[kind] == 0 {
						got[kind] = cb.Results[i].GasUsed
					}
				}
			}
		}
		var out []GasRow
		for _, k := range gasClasses {
			out = append(out, GasRow{MsgType: k, Measured: got[k]})
		}
		return out
	})
}

// gasSpec is the gas table's cell: one block of 100 transfers, relayed
// to completion.
func gasSpec() scenario.Spec {
	s := testbedSpec("gas", scenario.WorkloadSpec{Transfers: 100, Windows: 1})
	s.Until = scenario.Duration(10 * time.Minute)
	return s
}

// --- WebSocket limit (§V) --------------------------------------------------------

// WebSocketResult classifies transfers after the frame-overflow scenario.
type WebSocketResult struct {
	Transfers  int
	FramesLost uint64
	Completed  int
	TimedOut   uint64
	Stuck      int
}

// WebSocketLimit reproduces §V's overflow experiment: a block containing
// wsTxs transactions with 100 transfers each, relayer clear interval 0.
func WebSocketLimit(seed int64) (WebSocketResult, error) {
	res0, err := runOne("ws", wsSpec(), seed, result)
	if err != nil {
		return WebSocketResult{}, err
	}
	e := res0.Edges[0]
	res := WebSocketResult{
		Transfers: wsTxs * 100,
		Completed: e.Completion[metrics.StatusCompleted],
	}
	for _, r := range e.Relayers {
		res.FramesLost += r.FramesLost
		res.TimedOut += r.TimeoutsDelivered
	}
	// Stuck: committed on source, never delivered, never timed out.
	res.Stuck = max(e.Completion[metrics.StatusInitiated]-int(res.TimedOut), 0)
	return res, nil
}

// Render writes the classification.
func (r WebSocketResult) Render(w io.Writer) {
	fmt.Fprintln(w, "# WebSocket frame-limit experiment (§V)")
	fmt.Fprintf(w, "transfers=%d framesLost=%d\n", r.Transfers, r.FramesLost)
	fmt.Fprintf(w, "completed: %d (%.1f%%)  timed out: %d (%.1f%%)  stuck: %d (%.1f%%)\n",
		r.Completed, pctOf(r.Completed, r.Transfers),
		int(r.TimedOut), pctOf(int(r.TimedOut), r.Transfers),
		r.Stuck, pctOf(r.Stuck, r.Transfers))
	fmt.Fprintln(w)
}

// §V's block: wsTxs transactions of 100 transfers, each with a
// wsTimeoutBlocks margin.
const wsTxs, wsTimeoutBlocks = 1000, 60

// wsSpec is §V's cell: the transfers injected straight into the source
// mempool so they land in a single block, as in the paper, run for 4x
// the timeout horizon, as the paper does. It names token-conservation
// only: the packets of the lost frames stay stuck unrefunded, which is
// §V's finding.
func wsSpec() scenario.Spec {
	s := testbedSpec("ws", scenario.WorkloadSpec{Transfers: wsTxs * 100, Inject: true, TimeoutBlocks: wsTimeoutBlocks})
	s.Until = scenario.Duration(time.Duration(4*wsTimeoutBlocks+40) * simconf.MinBlockInterval)
	s.Assertions = []string{scenario.AssertConservation}
	return s
}
