// Package experiments contains one driver per table and figure of the
// paper's evaluation (§IV): each function regenerates the corresponding
// rows/series on the simulated testbed. The registry (registry.go) is
// the experiment index.
package experiments

import (
	"fmt"
	"time"

	"ibcbench/internal/app"
	"ibcbench/internal/metrics"
	"ibcbench/internal/netem"
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
	// Workers bounds the sweep worker pool (0 = GOMAXPROCS, 1 = serial).
	// Each (config, seed) execution is an independent deterministic
	// simulation, so parallel and serial sweeps yield identical results.
	Workers int
	// Regions optionally places topology deployments on a geo region
	// preset (see geo.ParseSpec; "" = the paper's uniform WAN).
	Regions string
	// Validators overrides every chain's validator-set size in topology
	// deployments (0 = the paper's five); the votescale experiment sweeps
	// this axis explicitly.
	Validators int
	// Parallel partitions each run's chains over this many intra-run
	// workers (0/1 = the serial scheduler). Results are byte-identical
	// either way; see topo.DeployConfig.ParallelWorkers.
	Parallel int
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

// grid runs every (variant, seed) cell of a sweep on the worker pool:
// seedOf(v, i) is variant v's i-th seed and run executes one cell. Each
// cell is an independent deterministic simulation, so the pool size
// never changes a result. Results come back grouped by variant, in seed
// order; the first failing cell in input order aborts the sweep.
func grid[R any](opt Options, label string, variants int,
	seedOf func(variant, i int) int64, run func(variant int, seed int64) (R, error)) ([][]R, error) {
	type cell struct {
		variant int
		seed    int64
	}
	var cells []cell
	for v := 0; v < variants; v++ {
		for i := 0; i < opt.seeds(); i++ {
			cells = append(cells, cell{v, seedOf(v, i)})
		}
	}
	type outcome struct {
		res R
		err error
	}
	outcomes := scenario.ParallelMap(cells, opt.Workers, func(c cell) outcome {
		res, err := run(c.variant, c.seed)
		return outcome{res, err}
	})
	byVariant := make([][]R, variants)
	for i, o := range outcomes {
		if o.err != nil {
			return nil, fmt.Errorf("experiments: %s (cell %d, seed %d): %w", label, i, cells[i].seed, o.err)
		}
		byVariant[cells[i].variant] = append(byVariant[cells[i].variant], o.res)
	}
	return byVariant, nil
}

// specGrid is grid over declarative scenarios: one spec per variant,
// lowered and run once per cell.
func specGrid(opt Options, label string, specs []scenario.Spec, seedOf func(variant, i int) int64) ([][]*topo.Result, error) {
	return grid(opt, label, len(specs), seedOf, func(v int, seed int64) (*topo.Result, error) {
		sc, err := scenario.Compile(specs[v])
		if err != nil {
			return nil, err
		}
		return sc.Run(seed)
	})
}

// topoSpec is the part every topology driver's spec shares: the preset
// graph on opt's region preset, validator-set size and intra-run
// workers, with every edge sustaining rate requests/second for the
// given windows.
func (o Options) topoSpec(name, preset string, rate, windows int) scenario.Spec {
	return scenario.Spec{
		Name:     name,
		Topology: scenario.TopologySpec{Preset: preset},
		Regions:  o.Regions,
		Deploy:   scenario.DeploySpec{Validators: o.Validators, ParallelWorkers: o.Parallel},
		Workload: scenario.WorkloadSpec{Rate: rate, Windows: windows},
	}
}

// twoChain deploys the paper's two-chain testbed (§III-C) and starts
// it: 200 ms WAN unless lan, five validators per chain, `relayers`
// relayers (0 = one) on the single link. The link's A->B workload
// generator exists before block production starts. The spec layer has
// no LAN network, so this stays a DeployConfig.
func twoChain(seed int64, relayers int, lan bool) (*topo.Deployment, *topo.Link) {
	cfg := topo.DeployConfig{Seed: seed, RelayersPerEdge: relayers}
	if lan {
		cfg.Network = netem.DefaultLAN()
	}
	d, err := topo.Deploy(topo.TwoChain(), cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: two-chain deploy: %v", err))
	}
	link := d.Links[0]
	link.Forward()
	d.Start()
	return d, link
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
func Tendermint(opt Options) TendermintResult {
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
	seedOf := func(v, i int) int64 { return int64(1000*rates[v] + i) }
	// A two-chain cell has no error to return.
	runs, _ := grid(opt, "tendermint", len(rates), seedOf, func(v int, seed int64) (run, error) {
		d, link := twoChain(seed, 0, false)
		link.Forward().RunConstantRate(rates[v], windows)
		// Run long enough for all windows even with stretched blocks.
		deadline := time.Duration(windows+4) * simconf.MinBlockInterval * 16
		runUntilHeight(d, int64(windows)+2, deadline)

		st := link.Pair.A.Store
		committed, span := committedTransfers(st, int64(windows))
		r := run{interval: meanInterval(st).Seconds(), stats: link.Forward().Stats(), commit: committed}
		if span > 0 {
			r.tput = float64(committed) / span.Seconds()
			r.hasTput = true
		}
		return r, nil
	})
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
	return res
}

// runUntilHeight advances the sim until chain A reaches height or the
// deadline passes, stepping block by block.
func runUntilHeight(d *topo.Deployment, height int64, deadline time.Duration) {
	step := simconf.MinBlockInterval
	for d.Sched.Now() < deadline && d.Chains[0].Store.Height() < height {
		_ = d.Run(d.Sched.Now() + step)
	}
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
				n += transferMsgs(t)
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

func transferMsgs(t *app.Tx) int {
	n := 0
	for _, m := range t.Msgs {
		if m.MsgType() == "MsgTransfer" {
			n++
		}
	}
	return n
}

// meanInterval averages inter-block times over non-genesis blocks.
func meanInterval(st *store.Store) time.Duration {
	if st.Height() < 2 {
		return 0
	}
	var prev time.Duration
	var total time.Duration
	n := 0
	for h := int64(1); h <= st.Height(); h++ {
		cb, _ := st.Block(h)
		if h > 1 {
			total += cb.Block.Header.Time - prev
			n++
		}
		prev = cb.Block.Header.Time
	}
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
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
func RelayerSweep(opt Options, relayers int, lan bool) []RelayerPoint {
	rates := opt.Rates
	if rates == nil {
		rates = DefaultRelayerRates
	}
	windows := opt.windows(50)
	type run struct {
		counts    map[metrics.Status]int
		tput      float64
		hasTput   bool
		redundant float64
	}
	seedOf := func(v, i int) int64 { return int64(7000*rates[v] + 31*relayers + i) }
	// A two-chain cell has no error to return.
	runs, _ := grid(opt, "relayer sweep", len(rates), seedOf, func(v int, seed int64) (run, error) {
		d, link := twoChain(seed, relayers, lan)
		link.Forward().RunConstantRate(rates[v], windows)
		deadline := time.Duration(windows+8) * simconf.MinBlockInterval * 4
		runUntilHeight(d, int64(windows), deadline)
		now := d.Sched.Now()
		r := run{counts: link.Tracker.CompletionCounts()}
		if now > 0 {
			r.tput = float64(r.counts[metrics.StatusCompleted]) / now.Seconds()
			r.hasTput = true
		}
		for _, rs := range link.Relayers {
			r.redundant += float64(rs.Stats().RedundantErrors)
		}
		return r, nil
	})
	var out []RelayerPoint
	for i, rate := range rates {
		pt := RelayerPoint{Rate: rate, Relayers: relayers, LAN: lan}
		var tputs []float64
		for _, r := range runs[i] {
			if r.hasTput {
				tputs = append(tputs, r.tput)
			}
			pt.Completed += float64(r.counts[metrics.StatusCompleted])
			pt.Partial += float64(r.counts[metrics.StatusPartial])
			pt.Initiated += float64(r.counts[metrics.StatusInitiated])
			pt.NotCommitted += float64(r.counts[metrics.StatusNotCommitted])
			pt.RedundantErrors += r.redundant
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
	return out
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
func Fig12(transfers int, seed int64) Fig12Result {
	d, link := twoChain(seed, 0, false)
	d.Sched.At(time.Millisecond, func() { link.Forward().SubmitBatch(transfers) })
	_ = d.Run(45 * time.Minute)

	t := link.Tracker
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
}

// DefaultStrategies mirrors the paper: split 5,000 transfers over
// 1..64 blocks.
var DefaultStrategies = []int{1, 2, 4, 8, 16, 32, 64}

// Fig13 measures completion latency for each submission strategy.
func Fig13(transfers int, strategies []int, seed int64) []Fig13Row {
	if strategies == nil {
		strategies = DefaultStrategies
	}
	var out []Fig13Row
	for _, blocks := range strategies {
		d, link := twoChain(seed+int64(blocks), 0, false)
		link.Forward().SubmitSpread(transfers, blocks)
		_ = d.Run(45 * time.Minute)
		t := link.Tracker
		first, _, ok1 := t.StepSpan(metrics.StepTransferBroadcast)
		_, last, ok2 := t.StepSpan(metrics.StepAckConfirmation)
		row := Fig13Row{
			Blocks:    blocks,
			Completed: t.CompletionCounts()[metrics.StatusCompleted],
		}
		if ok1 && ok2 {
			row.Completion = last - first
		}
		out = append(out, row)
	}
	return out
}

// --- Gas table (§IV-A) ---------------------------------------------------------

// GasRow reports measured gas for a 100-message transaction class.
type GasRow struct {
	MsgType  string
	Measured uint64
	Paper    uint64
}

// GasTable measures per-class gas on a live run of 100 transfers.
func GasTable(seed int64) []GasRow {
	d, link := twoChain(seed, 0, false)
	d.Sched.At(time.Millisecond, func() { link.Forward().SubmitBatch(100) })
	_ = d.Run(10 * time.Minute)
	want := map[string]uint64{
		"MsgTransfer":        3669161,
		"MsgRecvPacket":      7238699,
		"MsgAcknowledgement": 3107462,
	}
	got := map[string]uint64{}
	scan := func(st *store.Store) {
		for h := int64(1); h <= st.Height(); h++ {
			cb, _ := st.Block(h)
			for i, tx := range cb.Block.Data {
				t, ok := tx.(*app.Tx)
				if !ok || len(t.Msgs) < 100 || !cb.Results[i].IsOK() {
					continue
				}
				kind := t.Msgs[len(t.Msgs)-1].MsgType() // last msg: batch class
				if _, tracked := want[kind]; tracked && got[kind] == 0 {
					got[kind] = cb.Results[i].GasUsed
				}
			}
		}
	}
	scan(link.Pair.A.Store)
	scan(link.Pair.B.Store)
	var out []GasRow
	for _, k := range []string{"MsgTransfer", "MsgRecvPacket", "MsgAcknowledgement"} {
		out = append(out, GasRow{MsgType: k, Measured: got[k], Paper: want[k]})
	}
	return out
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
// 1,000 transactions with 100 transfers each, relayer clear interval 0.
// Transactions are injected directly into the mempool so they land in a
// single block, as in the paper.
func WebSocketLimit(seed int64, txs, timeoutBlocks int) WebSocketResult {
	d, link := twoChain(seed, 0, false)
	link.Forward().TimeoutBlocks = int64(timeoutBlocks)
	d.Sched.At(time.Millisecond, func() {
		link.Forward().InjectDirect(txs * 100)
	})
	// Run for 4x the timeout horizon, as the paper does.
	_ = d.Run(time.Duration(4*timeoutBlocks+40) * simconf.MinBlockInterval)

	counts := link.Tracker.CompletionCounts()
	res := WebSocketResult{
		Transfers: txs * 100,
		Completed: counts[metrics.StatusCompleted],
	}
	for _, r := range link.Relayers {
		res.FramesLost += r.Stats().FramesLost
		res.TimedOut += r.Stats().TimeoutsDelivered
	}
	// Stuck: committed on source, never delivered, never timed out.
	res.Stuck = counts[metrics.StatusInitiated] - int(res.TimedOut)
	if res.Stuck < 0 {
		res.Stuck = 0
	}
	return res
}
