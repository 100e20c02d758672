// Scenario: a topology bundled with a workload mix — one constant
// transfer rate, or a total over windows or injected into one block, on
// every edge, plus multi-hop routes — and run options, producing
// per-edge and aggregate reports.
package topo

import (
	"fmt"
	"io"
	"time"

	"ibcbench/internal/chaos"
	"ibcbench/internal/ibc"
	"ibcbench/internal/ibc/transfer"
	"ibcbench/internal/metrics"
	"ibcbench/internal/obs"
	"ibcbench/internal/relayer"
	"ibcbench/internal/sim"
	"ibcbench/internal/simconf"
	"ibcbench/internal/workload"
)

// Workload is the traffic of a run: one constant rate, or a total over
// windows or injected into one block, on every edge, plus multi-hop
// routes. It is also the "workload" block of a scenario spec file, so its
// JSON tags and field order are that file format.
type Workload struct {
	// Rate applies to every edge (requests/second, A->B). Zero means no
	// constant-rate traffic, only the routes.
	Rate int `json:"rate,omitempty"`
	// Windows is the number of submission windows (0 = 10).
	Windows int `json:"windows,omitempty"`
	// Transfers is every edge's total, split evenly over Windows
	// (Fig. 13's submission strategies; one window is Fig. 12's
	// single-block burst). A spec sets Rate or Transfers, not both.
	Transfers int `json:"transfers,omitempty"`
	// Inject stages the Transfers straight into each source mempool at
	// 1 ms, bypassing RPC, so they all land in one block (§V's
	// frame-overflow block). It needs Transfers and at most one window.
	Inject bool `json:"inject,omitempty"`
	// TimeoutBlocks is the edge traffic's packet timeout margin in
	// destination blocks, as Route.TimeoutBlocks is a route's (0 = the
	// generator's default).
	TimeoutBlocks int64 `json:"timeoutBlocks,omitempty"`
	// Routes are multi-hop flows started at scenario begin.
	Routes []Route `json:"routes,omitempty"`
}

// Route is one multi-hop transfer flow: Transfers tokens moved along the
// node path. The default (sequential) mode submits each leg as its own
// user transfer once the previous leg's transfers have fully completed
// on its edge — the way deployments without packet forwarding chain
// ICS-20 transfers. Forwarded mode instead issues a single user transfer
// carrying a nested forward memo; the packet-forward middleware on each
// intermediate chain emits hop 2+ within the receiving block and the
// origin's acknowledgement settles only when the whole route does.
type Route struct {
	// Path is the node sequence, at least two nodes; consecutive nodes
	// must share an edge. The spec checks it (scenario.Spec.Validate).
	Path []int `json:"path"`
	// Transfers is the batch size moved along the path, at least one.
	Transfers int `json:"transfers"`
	// Forwarded selects native packet forwarding over sequential legs.
	Forwarded bool `json:"forwarded,omitempty"`
	// TimeoutBlocks overrides the packet timeout margin (0 = defaults):
	// each sequential leg's packets time out this many destination
	// blocks after they are sent; in Forwarded mode it is the
	// middleware's per-hop margin. Tiny values inject timeouts for
	// refund experiments.
	TimeoutBlocks int64 `json:"timeoutBlocks,omitempty"`
}

// RouteReceiver names the final recipient account of route idx, the
// account whose balance holds the delivered (possibly nested) voucher in
// Forwarded mode.
func RouteReceiver(idx int) string { return fmt.Sprintf("route-r%d-recv", idx) }

// Scenario bundles everything one experiment execution needs.
type Scenario struct {
	Name     string
	Topology Topology
	Deploy   DeployConfig
	// Workload is the traffic the run drives.
	Workload Workload
	// Chaos is the fault timeline injected during the run, in any order;
	// the applied faults are folded into the result.
	Chaos []chaos.Event
	// RecordCurves includes per-edge cleared-backlog curves in the
	// result (one sample per completed packet — skip for large sweeps).
	RecordCurves bool
	// Until is the virtual run deadline (0 = derived from the workload).
	Until time.Duration
	// UntilHeight stops the run at the first block-interval step at
	// which chain 0 has committed this height (0 = at the deadline).
	UntilHeight int64
	// ExtraSettle extends the derived deadline — room for timeout refunds
	// and backlog clearing to quiesce before post-run invariant checks.
	// Ignored when Until is set explicitly.
	ExtraSettle time.Duration
}

// EdgeReport is the per-edge slice of a scenario result.
type EdgeReport struct {
	Edge       int
	From, To   string
	Completion map[metrics.Status]int
	Throughput float64 // completed transfers per virtual second on this edge
	// Latency summarizes per-packet completion latencies (seconds, from
	// transfer broadcast to acknowledgement confirmation).
	Latency  metrics.Dist
	Workload workload.Stats
	Relayers []relayer.Stats
	// Cleared is the edge's cleared-backlog curve — the sorted absolute
	// times each packet's acknowledgement confirmed — recorded when the
	// scenario sets RecordCurves (fault-window experiments read the
	// post-outage catch-up from it).
	Cleared metrics.Series
	// Failover reports the edge's standby supervision (nil without one).
	Failover *FailoverReport
}

// RouteReport is the per-route slice of a scenario result.
type RouteReport struct {
	Route     int
	Path      []int
	Forwarded bool
	Transfers int
	// Completed reports whether every transfer's packet lifecycle settled
	// end to end (in Forwarded mode, the origin ack — success or unwound
	// refund — confirmed).
	Completed bool
	// Latency is virtual time from route start to full completion.
	Latency time.Duration
	// Hops holds per-hop arrival series: sample k of series i is the
	// latency from route start until a transfer's hop-i packet was
	// confirmed received on chain Path[i+1].
	Hops []metrics.Series
}

// Result aggregates one scenario execution.
type Result struct {
	Name     string
	Seed     int64
	Duration time.Duration
	// Blocks is the total block count committed across the deployment's
	// chains; BlocksPerSec normalizes by the virtual duration. Together
	// with per-edge Latency they make validator-set size a measurable
	// experiment axis (the votescale experiment sweeps it).
	Blocks       int64
	BlocksPerSec float64
	Edges        []EdgeReport
	// Total merges the per-edge completion counts.
	Total map[metrics.Status]int
	// Throughput is aggregate completed transfers per virtual second.
	Throughput float64
	// RoutesCompleted counts routes whose every leg fully completed.
	RoutesCompleted int
	// Routes reports each multi-hop route's mode, latency and hop series.
	Routes []RouteReport
	// Faults is the injected-fault log, in application order.
	Faults []chaos.Applied
	// Metrics is the observability registry snapshot (nil unless the
	// scenario was deployed with DeployConfig.Obs); omitted from JSON so
	// uninstrumented results stay byte-identical to earlier versions.
	Metrics *obs.Snapshot `json:",omitempty"`
}

// routeRun tracks one in-flight multi-hop route.
type routeRun struct {
	route Route
	idx   int
	hop   int // current leg index (Path[hop] -> Path[hop+1])
	done  bool

	startedAt time.Duration
	doneAt    time.Duration
	// legs/links record the generators and edges the route used, for
	// hop-latency attribution (one per leg sequentially; only the first
	// in Forwarded mode — later hops are middleware-emitted).
	legs  []*workload.Generator
	links []*Link
}

// RunDeployed deploys the scenario's topology and drives the workload
// mix to the deadline, returning per-edge and aggregate reports and the
// finished deployment, so callers (the scenario assertion engine) can
// inspect chain state, trackers and links after the deadline. The
// returned deployment is quiescent — its scheduler has drained to the
// deadline — and must be treated as read-only.
func (s Scenario) RunDeployed(seed int64) (*Result, *Deployment, error) {
	cfg := s.Deploy
	cfg.Seed = seed
	d, err := Deploy(s.Topology, cfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := s.RunOn(d, seed)
	if err != nil {
		return nil, nil, err
	}
	return res, d, nil
}

// RunOn is RunDeployed's second half: it drives the workload mix on d,
// a fresh deployment of s.Topology made with s.Deploy at this seed, to
// the deadline. A caller that deploys itself can attach commit hooks to
// d's chains before the run starts.
func (s Scenario) RunOn(d *Deployment, seed int64) (*Result, error) {
	w := s.Workload
	windows := w.Windows
	if windows <= 0 {
		windows = 10
	}
	if w.Rate > 0 || w.Transfers > 0 {
		for _, l := range d.Links {
			g := l.Forward()
			if w.TimeoutBlocks > 0 {
				g.TimeoutBlocks = w.TimeoutBlocks
			}
			switch {
			case w.Inject:
				d.Sched.At(time.Millisecond, func() { g.InjectDirect(w.Transfers) })
			case w.Transfers > 0:
				g.SubmitSpread(w.Transfers, windows)
			default:
				g.RunConstantRate(w.Rate, windows)
			}
		}
	}
	runs := make([]*routeRun, 0, len(w.Routes))
	for i, rt := range w.Routes {
		rr := &routeRun{route: rt, idx: i}
		runs = append(runs, rr)
		// Route starts sit off the constant-rate submission grid
		// (w·block+1ms), one microsecond apart, so no route start shares
		// a timestamp with a workload event or with another route.
		// Every route's timing, and so every result, depends on this
		// offset.
		startAt := 1500*time.Microsecond + time.Duration(i)*time.Microsecond
		if rt.Forwarded {
			d.Sched.At(startAt, func() { d.startForwardedRoute(rr) })
		} else {
			d.Sched.At(startAt, func() { d.startLeg(rr) })
		}
	}
	var faults []chaos.Applied
	chaos.Inject(d.Sched, d, s.Chaos, &faults)
	d.Start()
	deadline := s.deadline(windows)
	if s.UntilHeight > 0 {
		// Step block interval by block interval until chain 0 has
		// committed the height (the paper's throughput sweeps stop
		// there, mid-flight).
		for now := d.Sched.Now(); now < deadline && d.Chains[0].Store.Height() < s.UntilHeight; now = d.Sched.Now() {
			if err := d.Run(min(now+simconf.MinBlockInterval, deadline)); err != nil {
				return nil, err
			}
		}
	} else if err := d.Run(deadline); err != nil {
		return nil, err
	}
	res := s.analyze(d, seed, runs)
	res.Faults = faults
	if d.Obs != nil {
		foldObs(d, res, runs)
	}
	return res, nil
}

// deadline derives a generous virtual deadline covering the constant-rate
// windows and every route leg's end-to-end latency.
func (s Scenario) deadline(windows int) time.Duration {
	if s.Until > 0 {
		return s.Until
	}
	d := time.Duration(windows+8) * simconf.MinBlockInterval * 4
	for _, rt := range s.Workload.Routes {
		// ~12 block windows per leg bounds one ack'd transfer comfortably.
		legs := time.Duration(len(rt.Path)-1) * 12 * simconf.MinBlockInterval * 2
		if legs > d {
			d = legs
		}
	}
	// Leave recovery room after the last injected fault: detection,
	// backlog clearing and timeout refunds all happen behind it.
	for _, ev := range s.Chaos {
		if after := ev.At + 16*simconf.MinBlockInterval; after > d {
			d = after
		}
	}
	return d + s.ExtraSettle
}

// startLeg submits one route leg on a dedicated generator and advances
// to the next hop once the leg completes. On a path that ends where it
// starts, each leg spends what the previous one delivered, so the last
// leg brings the first leg's tokens home.
func (d *Deployment) startLeg(rr *routeRun) {
	if rr.hop == 0 {
		rr.startedAt = d.Sched.Now()
	}
	path := rr.route.Path
	from, to := path[rr.hop], path[rr.hop+1]
	link, _ := d.LinkBetween(from, to)
	gen := link.newRouteGenerator(from, rr.idx, rr.hop)
	if rr.route.TimeoutBlocks > 0 {
		gen.TimeoutBlocks = rr.route.TimeoutBlocks
	}
	if path[0] == path[len(path)-1] {
		gen.RoundTrip = true
		if rr.hop > 0 {
			prev, pl := rr.legs[rr.hop-1], rr.links[rr.hop-1]
			held, _ := transfer.ReceivedDenom(nil, ibc.Packet{
				SourcePort: transfer.PortID, SourceChannel: pl.ChannelFrom(path[rr.hop-1]),
				DestPort: transfer.PortID, DestChannel: pl.ChannelFrom(from),
			}, []byte(prev.Denom))
			gen.Carry(prev, string(held))
		}
	}
	d.submitAndAwait(rr, link, gen)
}

// startForwardedRoute submits the route's single user transfer batch with
// a nested forward memo on the first edge; intermediate hops are emitted
// by each chain's packet-forward middleware. The route completes when the
// origin acknowledgements settle — which the middleware holds open until
// the final hop is received (or a failed hop unwinds into a refund).
func (d *Deployment) startForwardedRoute(rr *routeRun) {
	rr.startedAt = d.Sched.Now()
	path := rr.route.Path
	link, _ := d.LinkBetween(path[0], path[1])
	gen := link.newRouteGenerator(path[0], rr.idx, 0)
	gen.Memo = d.ForwardMemo(path, RouteReceiver(rr.idx), rr.route.TimeoutBlocks)
	d.submitAndAwait(rr, link, gen)
}

// submitAndAwait submits the route's batch on gen and polls link's
// tracker once per block window until every one of gen's own packets
// completes. Attribution goes through the generator's PacketKeys, so
// concurrent edge-rate traffic on the same channel never completes a leg
// early. A sequential route then starts its next leg; a forwarded route,
// whose later hops the middleware emits, is done.
func (d *Deployment) submitAndAwait(rr *routeRun, link *Link, gen *workload.Generator) {
	rr.legs = append(rr.legs, gen)
	rr.links = append(rr.links, link)
	gen.SubmitBatch(rr.route.Transfers)
	d.Sched.Tick(simconf.MinBlockInterval, func(t *sim.Ticker) {
		completed := 0
		for _, key := range gen.PacketKeys() {
			if link.Tracker.StatusOf(key) == metrics.StatusCompleted {
				completed++
			}
		}
		if completed < rr.route.Transfers {
			return
		}
		t.Cancel()
		rr.hop++
		if !rr.route.Forwarded && rr.hop+1 < len(rr.route.Path) {
			d.startLeg(rr)
			return
		}
		rr.done = true
		rr.doneAt = d.Sched.Now()
	})
}

func (s Scenario) analyze(d *Deployment, seed int64, runs []*routeRun) *Result {
	now := d.Sched.Now()
	res := &Result{
		Name:     s.Name,
		Seed:     seed,
		Duration: now,
	}
	for _, c := range d.Chains {
		res.Blocks += c.Store.Height()
	}
	if now > 0 {
		res.BlocksPerSec = float64(res.Blocks) / now.Seconds()
	}
	var perEdge []map[metrics.Status]int
	for _, l := range d.Links {
		counts := l.Tracker.CompletionCounts()
		perEdge = append(perEdge, counts)
		rep := EdgeReport{
			Edge:       l.Index,
			From:       l.Pair.A.ID,
			To:         l.Pair.B.ID,
			Completion: counts,
		}
		if now > 0 {
			rep.Throughput = float64(counts[metrics.StatusCompleted]) / now.Seconds()
		}
		latencies := l.Tracker.CompletionTimes()
		samples := make([]float64, len(latencies))
		for i, lat := range latencies {
			samples[i] = lat.Seconds()
		}
		rep.Latency = metrics.Summarize(samples)
		if s.RecordCurves {
			rep.Cleared = metrics.Series{
				Name:    "cleared",
				Samples: l.Tracker.StepCompletionCurve(metrics.StepAckConfirmation),
			}
		}
		gens := l.legGens
		if l.fwd != nil {
			gens = append([]*workload.Generator{l.fwd}, gens...)
		}
		for _, g := range gens {
			st := g.Stats()
			rep.Workload.Requested += st.Requested
			rep.Workload.Submitted += st.Submitted
			rep.Workload.Failed += st.Failed
		}
		for _, r := range l.Relayers {
			rep.Relayers = append(rep.Relayers, r.Stats())
		}
		if l.Failover != nil {
			rep.Failover = l.Failover.Report()
		}
		res.Edges = append(res.Edges, rep)
	}
	res.Total = metrics.MergeCounts(perEdge...)
	if now > 0 {
		res.Throughput = float64(res.Total[metrics.StatusCompleted]) / now.Seconds()
	}
	for _, rr := range runs {
		if rr.done {
			res.RoutesCompleted++
		}
		res.Routes = append(res.Routes, d.routeReport(rr))
	}
	return res
}

// routeReport assembles one route's report, attributing per-hop arrival
// latencies: sequential legs use each leg generator's own packets;
// forwarded routes follow the middleware's hop mapping from the first
// leg's packets across the intermediate chains.
func (d *Deployment) routeReport(rr *routeRun) RouteReport {
	rep := RouteReport{
		Route:     rr.idx,
		Path:      rr.route.Path,
		Forwarded: rr.route.Forwarded,
		Transfers: rr.route.Transfers,
		Completed: rr.done,
	}
	if rr.done {
		rep.Latency = rr.doneAt - rr.startedAt
	}
	if len(rr.legs) == 0 {
		return rep
	}
	hopSeries := func(hop int, keys []metrics.PacketKey, tracker *metrics.Tracker) metrics.Series {
		s := metrics.Series{Name: fmt.Sprintf("hop-%d", hop+1)}
		for _, key := range keys {
			if at, ok := tracker.StepTime(key, metrics.StepRecvConfirmation); ok {
				s.Add(at - rr.startedAt)
			}
		}
		return s
	}
	if !rr.route.Forwarded {
		for i, gen := range rr.legs {
			rep.Hops = append(rep.Hops, hopSeries(i, gen.PacketKeys(), rr.links[i].Tracker))
		}
		return rep
	}
	rep.Hops = append(rep.Hops, hopSeries(0, rr.legs[0].PacketKeys(), rr.links[0].Tracker))
	d.walkForwardedHops(rr, func(hop int, link *Link, keys []metrics.PacketKey) {
		rep.Hops = append(rep.Hops, hopSeries(hop, keys, link.Tracker))
	})
	return rep
}

// walkForwardedHops follows a forwarded route's first-leg packets across
// its intermediate chains through each one's packet-forward middleware.
// visit sees every later hop in order, with the link the hop crosses and
// the hop's packets aligned with the first leg's: keys[i] is where
// first-leg packet i went, or the zero key once it stopped resolving
// (not yet forwarded, or refused).
func (d *Deployment) walkForwardedHops(rr *routeRun, visit func(hop int, link *Link, keys []metrics.PacketKey)) {
	path := rr.route.Path
	keys := rr.legs[0].PacketKeys()
	for j := 1; j+1 < len(path); j++ {
		mid := d.Chains[path[j]]
		inLink, _ := d.LinkBetween(path[j-1], path[j])
		outLink, _ := d.LinkBetween(path[j], path[j+1])
		inChan := inLink.ChannelFrom(path[j]) // dest channel of hop-j packets
		next := make([]metrics.PacketKey, len(keys))
		for i, key := range keys {
			if key == (metrics.PacketKey{}) {
				continue
			}
			if outChan, outSeq, ok := mid.Forward.NextHop(inChan, key.Sequence); ok {
				next[i] = metrics.PacketKey{SrcChain: mid.ID, Channel: outChan, Sequence: outSeq}
			}
		}
		keys = next
		visit(j, outLink, keys)
	}
}

// Render writes the result as an aligned per-edge table plus totals.
func (r *Result) Render(w io.Writer) {
	fmt.Fprintf(w, "== scenario %s (seed %d) ==\n", r.Name, r.Seed)
	fmt.Fprintf(w, "duration: %v  blocks: %d (%.2f blocks/s)\n", r.Duration, r.Blocks, r.BlocksPerSec)
	fmt.Fprintf(w, "%-6s %-16s %-10s %-9s %-10s %-13s %-8s\n",
		"edge", "link", "completed", "partial", "initiated", "notcommitted", "TFPS")
	for _, e := range r.Edges {
		fmt.Fprintf(w, "%-6d %-16s %-10d %-9d %-10d %-13d %-8.2f\n",
			e.Edge, e.From+"~"+e.To,
			e.Completion[metrics.StatusCompleted], e.Completion[metrics.StatusPartial],
			e.Completion[metrics.StatusInitiated], e.Completion[metrics.StatusNotCommitted],
			e.Throughput)
	}
	for _, e := range r.Edges {
		if e.Failover == nil {
			continue
		}
		fmt.Fprintf(w, "edge %d failover: takeovers=%d downtime=%v (%d outages) standby recv=%d acks=%d timeouts=%d\n",
			e.Edge, e.Failover.Takeovers, e.Failover.Downtime.Sum(), e.Failover.Downtime.Len(),
			e.Failover.Standby.RecvDelivered, e.Failover.Standby.AcksDelivered,
			e.Failover.Standby.TimeoutsDelivered)
	}
	fmt.Fprintf(w, "total: completed=%d partial=%d initiated=%d notcommitted=%d (%.2f TFPS)\n",
		r.Total[metrics.StatusCompleted], r.Total[metrics.StatusPartial],
		r.Total[metrics.StatusInitiated], r.Total[metrics.StatusNotCommitted], r.Throughput)
	for _, f := range r.Faults {
		fmt.Fprintf(w, "fault @%v: %s\n", f.At, f.Desc)
	}
	if r.RoutesCompleted > 0 {
		fmt.Fprintf(w, "routes completed: %d\n", r.RoutesCompleted)
	}
	for _, rt := range r.Routes {
		mode := "sequential"
		if rt.Forwarded {
			mode = "forwarded"
		}
		fmt.Fprintf(w, "route %d %v (%s, %d transfers): completed=%v latency=%v",
			rt.Route, rt.Path, mode, rt.Transfers, rt.Completed, rt.Latency)
		for _, h := range rt.Hops {
			fmt.Fprintf(w, " %s@%v", h.Name, h.Max())
		}
		fmt.Fprintln(w)
	}
}
