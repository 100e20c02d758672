// Deployment: instantiate a Topology on the shared discrete-event
// scheduler — N chains, per-link relayers with their own full nodes, a
// per-edge metrics tracker and per-edge workload generators.
package topo

import (
	"fmt"
	"time"

	"ibcbench/internal/chain"
	"ibcbench/internal/geo"
	"ibcbench/internal/ibc/pfm"
	"ibcbench/internal/ibc/transfer"
	"ibcbench/internal/metrics"
	"ibcbench/internal/netem"
	"ibcbench/internal/obs"
	"ibcbench/internal/relayer"
	"ibcbench/internal/sim"
	"ibcbench/internal/workload"
)

// DeployConfig parameterizes a topology deployment; zero values take the
// paper's defaults (200 ms WAN, five validators, one relayer per edge).
type DeployConfig struct {
	Seed       int64
	Network    netem.Config
	Validators int
	FullProofs bool
	// RelayersPerEdge is the default relayer count for edges that don't
	// override it in their EdgeSpec.
	RelayersPerEdge int
	// ClearIntervalBlocks forwards to every relayer.
	ClearIntervalBlocks int64
	// Geo places every host into a region of this model and compiles the
	// inter-region matrix into per-host-pair netem overrides. Chains take
	// their ChainSpec.Region or round-robin over the model's regions;
	// relayer j of an edge lands in the region of side A (even j) or B
	// (odd j); standbys land on side B.
	Geo *geo.Model
	// Standby adds a passive standby relayer plus a failover supervisor
	// to every edge (per-edge opt-in via EdgeSpec.Standby).
	Standby bool
	// Obs attaches observability (span tracer + metrics registry) to the
	// deployment; nil (the default) disables all instrumentation. Must be
	// per-deployment — sweeps run seeds concurrently — so experiment
	// drivers leave it nil and only single-run trace exports set it.
	Obs *obs.Obs
	// ParallelWorkers > 1 runs the simulation on the conservative
	// parallel scheduler: one partition per chain (its consensus actors,
	// app, RPC nodes, attached relayers and workload drivers), advancing
	// in lockstep windows bounded by the minimum cross-partition network
	// latency. Results are byte-identical to the serial scheduler. The
	// deployment falls back to serial when it has a single chain, full
	// proofs, or no usable latency lookahead.
	ParallelWorkers int
}

// Link is one deployed edge: the seeded channel pair, its relayers, its
// event tracker and lazily created directional workload generators.
type Link struct {
	Index    int
	Spec     EdgeSpec
	Pair     *chain.Pair
	Relayers []*relayer.Relayer
	// Standby is the edge's passive backup relayer (nil unless enabled);
	// Failover is the supervisor activating it.
	Standby  *relayer.Relayer
	Failover *Failover
	// Tracker aggregates packet lifecycles for this edge only; roll
	// edges up with metrics.MergeCounts.
	Tracker *metrics.Tracker

	dep      *Deployment
	fwd, rev *workload.Generator
	// legGens are the dedicated generators of route legs that crossed
	// this edge, kept for workload accounting.
	legGens []*workload.Generator
}

// relayerAt resolves a chaos/failover relayer ordinal: the active
// relayers first, then the standby as the last ordinal.
func (l *Link) relayerAt(i int) *relayer.Relayer {
	if i >= 0 && i < len(l.Relayers) {
		return l.Relayers[i]
	}
	if l.Standby != nil && i == len(l.Relayers) {
		return l.Standby
	}
	return nil
}

// relayerCount reports active relayers plus the standby.
func (l *Link) relayerCount() int {
	n := len(l.Relayers)
	if l.Standby != nil {
		n++
	}
	return n
}

// Forward returns (creating on first use) the generator submitting
// transfers in the edge's A -> B direction.
func (l *Link) Forward() *workload.Generator {
	if l.fwd == nil {
		l.fwd = l.newGenerator(l.Pair.A, l.Pair.B, l.Pair.ChannelAB, "f")
	}
	return l.fwd
}

// Reverse returns the B -> A generator.
func (l *Link) Reverse() *workload.Generator {
	if l.rev == nil {
		l.rev = l.newGenerator(l.Pair.B, l.Pair.A, l.Pair.ChannelBA, "r")
	}
	return l.rev
}

func (l *Link) newGenerator(src, dst *chain.Chain, channel, dir string) *workload.Generator {
	d := l.dep
	g := workload.NewOnChannel(d.schedFor(d.chainIndex(src)), d.RNG, src, dst, channel,
		l.Relayers[0].EndpointRPC(src.ID), l.Tracker)
	// Namespace accounts per edge+direction: several generators can share
	// one source chain (a hub) without sequence clashes.
	g.AccountPrefix = fmt.Sprintf("user-e%d%s", l.Index, dir)
	d.attachDriver(g, src, dst)
	return g
}

// newRouteGenerator creates a dedicated generator for leg `hop` of route
// `route`, departing the given node across this link. Route legs never
// share a generator with edge-rate traffic (or other legs), so the
// generator's PacketKeys attribute the leg's packets exactly on a busy
// shared channel. The account prefix derives from (route, hop) — not a
// deploy-order counter — so reruns are byte-identical regardless of the
// order legs start in.
func (l *Link) newRouteGenerator(from, route, hop int) *workload.Generator {
	d := l.dep
	src, dst, channel := l.Pair.A, l.Pair.B, l.Pair.ChannelAB
	if d.Chains[from] != l.Pair.A {
		src, dst, channel = l.Pair.B, l.Pair.A, l.Pair.ChannelBA
	}
	g := workload.NewOnChannel(d.schedFor(d.chainIndex(src)), d.RNG, src, dst, channel,
		l.Relayers[0].EndpointRPC(src.ID), l.Tracker)
	g.AccountPrefix = fmt.Sprintf("route-r%d-h%d", route, hop)
	d.attachDriver(g, src, dst)
	l.legGens = append(l.legGens, g)
	return g
}

// attachDriver wires a freshly created workload driver into the source
// chain's event partition and region, and routes its destination-height
// view (packet timeout stamping) through delivered block frames so the
// value never depends on another partition's instantaneous state. The
// frame subscription runs identically under the serial scheduler, keeping
// the two modes' event streams byte-identical.
func (d *Deployment) attachDriver(g *workload.Generator, src, dst *chain.Chain) {
	if d.par != nil {
		d.par.AssignHost(string(g.Host()), d.chainIndex(src))
	}
	g.ObserveDestHeight(dst.RPC)
	d.placeWithChain(g.Host(), src)
}

// ChannelFrom reports the channel identifier on the `from` side of the
// link.
func (l *Link) ChannelFrom(from int) string {
	if l.dep.Chains[from] == l.Pair.A {
		return l.Pair.ChannelAB
	}
	return l.Pair.ChannelBA
}

// Deployment is one instantiated topology.
type Deployment struct {
	Topology Topology
	Sched    *sim.Scheduler
	Net      *netem.Network
	RNG      *sim.RNG
	Chains   []*chain.Chain
	Links    []*Link
	// Geo is the host→region assignment (nil without a region model).
	Geo *geo.Assignment
	// Obs is the deployment's observability bundle (nil = disabled).
	Obs *obs.Obs

	// par is the conservative parallel runner (nil = serial). When set,
	// Sched is its global scheduler and every chain cluster lives on its
	// own partition scheduler.
	par *sim.Parallel

	// regions holds each chain's resolved region (empty without geo).
	regions []geo.Region
}

// Parallel reports whether the deployment runs on the parallel scheduler.
func (d *Deployment) Parallel() bool { return d.par != nil }

// schedFor returns the scheduler owning chain i's event partition: the
// shared scheduler when serial, the chain's private partition otherwise.
func (d *Deployment) schedFor(i int) *sim.Scheduler {
	if d.par == nil {
		return d.Sched
	}
	return d.par.Partition(i)
}

// chainIndex resolves a deployed chain back to its node index.
func (d *Deployment) chainIndex(c *chain.Chain) int {
	for i, have := range d.Chains {
		if have == c {
			return i
		}
	}
	return -1
}

// TotalProcessed sums executed events across every scheduler of the
// deployment (global plus partitions under the parallel runner).
func (d *Deployment) TotalProcessed() uint64 {
	if d.par != nil {
		return d.par.Processed()
	}
	return d.Sched.Processed()
}

// RegionOf reports the region chain i was placed in ("" without geo).
func (d *Deployment) RegionOf(i int) geo.Region {
	if d.regions == nil {
		return ""
	}
	return d.regions[i]
}

// placeWithChain places a late-created host (workload driver) in the
// given chain's region.
func (d *Deployment) placeWithChain(h netem.Host, c *chain.Chain) {
	if d.Geo == nil {
		return
	}
	for i, have := range d.Chains {
		if have == c {
			// Placement over a validated model cannot fail.
			_ = d.Geo.PlaceAndApply(d.Net, h, d.regions[i])
			return
		}
	}
}

// ForwardMemo builds the nested packet-forward memo that routes a
// transfer along path: one ForwardMetadata per intermediate chain, each
// naming that chain's outgoing channel toward the next node and carrying
// the rest of the route in Next. A two-node path needs no forwarding and
// yields "". timeoutBlocks (0 = middleware default) applies per hop.
func (d *Deployment) ForwardMemo(path []int, finalReceiver string, timeoutBlocks int64) (string, error) {
	var next *pfm.ForwardMetadata
	// Build innermost-first: hop j runs on chain path[j], sending to
	// path[j+1].
	for j := len(path) - 2; j >= 1; j-- {
		link, ok := d.LinkBetween(path[j], path[j+1])
		if !ok {
			return "", fmt.Errorf("topo: forward memo: no link %d-%d", path[j], path[j+1])
		}
		next = &pfm.ForwardMetadata{
			Receiver:      finalReceiver,
			Port:          transfer.PortID,
			Channel:       link.ChannelFrom(path[j]),
			TimeoutBlocks: timeoutBlocks,
			Next:          next,
		}
	}
	return pfm.Memo(next), nil
}

// Deploy instantiates the topology: a shared scheduler/network, one chain
// per node, a seeded IBC channel plus started relayers per edge.
// Chains do not produce blocks until Start.
func Deploy(t Topology, cfg DeployConfig) (*Deployment, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if cfg.Network.OneWayLatency == 0 {
		cfg.Network = netem.DefaultWAN()
	}
	perEdge := cfg.RelayersPerEdge
	if perEdge <= 0 {
		perEdge = 1
	}
	// The parallel runner needs a positive latency lookahead; decide
	// before constructing the network so the deployment consumes the
	// seed RNG identically in both modes.
	var par *sim.Parallel
	if cfg.ParallelWorkers > 1 && len(t.Chains) > 1 && !cfg.FullProofs && parallelLookahead(cfg) > 0 {
		par = sim.NewParallel(len(t.Chains), cfg.ParallelWorkers, 0)
	}
	sched := sim.NewScheduler()
	if par != nil {
		sched = par.Global()
	}
	rng := sim.NewRNG(cfg.Seed)
	network := netem.New(sched, rng, cfg.Network)
	if par != nil {
		network.SetPartitioner(par)
	}
	d := &Deployment{Topology: t, Sched: sched, Net: network, RNG: rng, Obs: cfg.Obs, par: par}
	cfg.Obs.Bind(sched.Now)
	if cfg.Geo != nil {
		asg, err := geo.NewAssignment(cfg.Geo)
		if err != nil {
			return nil, err
		}
		d.Geo = asg
		d.regions = make([]geo.Region, len(t.Chains))
		for i, spec := range t.Chains {
			d.regions[i] = spec.Region
			if d.regions[i] == "" {
				d.regions[i] = cfg.Geo.RegionAt(i)
			}
		}
	}
	placeChainHost := func(i int) func(netem.Host) {
		region := d.regions[i]
		return func(h netem.Host) { _ = d.Geo.PlaceAndApply(d.Net, h, region) }
	}
	for i, spec := range t.Chains {
		vals := spec.Validators
		if vals == 0 {
			vals = cfg.Validators
		}
		csched := sched
		if par != nil {
			csched = par.Partition(i)
		}
		c := chain.New(csched, network, chain.Config{
			ChainID:    t.ChainID(i),
			Validators: vals,
			FullProofs: cfg.FullProofs,
			Obs:        cfg.Obs,
		})
		if d.Geo != nil {
			if err := validRegion(cfg.Geo, d.regions[i], t.ChainID(i)); err != nil {
				return nil, err
			}
			place := placeChainHost(i)
			for _, h := range c.Hosts() {
				place(h)
			}
			// Relayer full nodes attach to the chain later; place them in
			// the chain's region as they appear.
			c.OnHost(place)
		}
		if par != nil {
			// Every chain host — validators, the primary full node and
			// full nodes attached later — lives in the chain's partition.
			i := i
			for _, h := range c.Hosts() {
				par.AssignHost(string(h), i)
			}
			c.OnHost(func(h netem.Host) { par.AssignHost(string(h), i) })
		}
		d.Chains = append(d.Chains, c)
	}
	for i, e := range t.Edges {
		l := &Link{
			Index:   i,
			Spec:    e,
			Pair:    chain.Link(d.Chains[e.A], d.Chains[e.B]),
			Tracker: metrics.NewTracker(),
			dep:     d,
		}
		n := e.Relayers
		if n <= 0 {
			n = perEdge
		}
		newRelayer := func(j int, name string) *relayer.Relayer {
			rcfg := relayer.Config{
				Name:                name,
				ClearIntervalBlocks: cfg.ClearIntervalBlocks,
				Tracker:             l.Tracker,
				Obs:                 cfg.Obs,
			}
			if j < 0 {
				// The standby's takeover relies on gap-driven clearing.
				if rcfg.ClearIntervalBlocks <= 0 {
					rcfg.ClearIntervalBlocks = 1
				}
			}
			// Even ordinals sit with side A, odd ones (and the standby)
			// with side B — a partitioned primary leaves a reachable
			// standby. The same side choice places the relayer's host in
			// that chain's region and event partition.
			side := e.A
			if j < 0 || j%2 == 1 {
				side = e.B
			}
			r := relayer.New(d.schedFor(side), rng, rcfg, l.Pair)
			if par != nil {
				par.AssignHost(string(r.Host()), side)
			}
			if d.Geo != nil {
				_ = d.Geo.PlaceAndApply(d.Net, r.Host(), d.regions[side])
			}
			return r
		}
		for j := 0; j < n; j++ {
			r := newRelayer(j, fmt.Sprintf("hermes-e%d-%d", i, j))
			r.Start()
			l.Relayers = append(l.Relayers, r)
		}
		if cfg.Standby || e.Standby {
			l.Standby = newRelayer(-1, fmt.Sprintf("hermes-e%d-standby", i))
			l.Failover = newFailover(d, l)
		}
		d.Links = append(d.Links, l)
	}
	return d, nil
}

// validRegion checks a chain's region exists in the model.
func validRegion(m *geo.Model, r geo.Region, chainID string) error {
	for _, have := range m.Regions {
		if have == r {
			return nil
		}
	}
	return fmt.Errorf("topo: chain %s placed in unknown region %q of model %s", chainID, r, m.Name)
}

// Start begins block production on every chain.
func (d *Deployment) Start() {
	for _, c := range d.Chains {
		c.Start()
	}
}

// Run drives the simulation to the virtual deadline. Under the parallel
// runner the exact cross-partition latency floor is computed here — every
// link profile exists by now — and bounds each synchronization window.
func (d *Deployment) Run(until time.Duration) error {
	if d.par != nil {
		d.par.SetHorizon(d.Net.MinCrossPartitionLatency(d.par.PartitionOf))
		return d.par.RunUntil(until)
	}
	return d.Sched.RunUntil(until)
}

// parallelLookahead is the deploy-time conservative lower bound on every
// cross-partition delivery latency: the network default and, with a geo
// model, every region path including the intra-region one (two chains may
// share a region). Each base shrinks by 4 relative standard deviations —
// sim.RNG.Jitter truncates there — and chaos overlays only add latency.
// The exact (larger) per-link bound replaces it at Run time.
func parallelLookahead(cfg DeployConfig) time.Duration {
	eff := func(base time.Duration, jitter float64) time.Duration {
		if jitter < 0 {
			jitter = cfg.Network.JitterRelStd
		}
		if jitter <= 0 {
			return base
		}
		return time.Duration(float64(base) * (1 - 4*jitter))
	}
	min := eff(cfg.Network.OneWayLatency, cfg.Network.JitterRelStd)
	if cfg.Geo != nil {
		if e := eff(cfg.Geo.Intra.OneWay, cfg.Geo.Intra.Jitter); e < min {
			min = e
		}
		for _, a := range cfg.Geo.Regions {
			for _, b := range cfg.Geo.Regions {
				if p, ok := cfg.Geo.Path(a, b); ok {
					if e := eff(p.OneWay, p.Jitter); e < min {
						min = e
					}
				}
			}
		}
	}
	return min
}

// Chain returns the deployed chain at node index i.
func (d *Deployment) Chain(i int) *chain.Chain { return d.Chains[i] }

// LinkBetween returns the deployed link between two node indices.
func (d *Deployment) LinkBetween(a, b int) (*Link, bool) {
	idx, ok := d.Topology.EdgeBetween(a, b)
	if !ok {
		return nil, false
	}
	return d.Links[idx], true
}
