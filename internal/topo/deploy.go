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
	// RelayersPerEdge is every edge's relayer count (0 = one).
	RelayersPerEdge int
	// ClearIntervalBlocks forwards to every relayer.
	ClearIntervalBlocks int64
	// Geo places every host into a region of this latency table and
	// installs the table's latencies as per-host-pair netem overrides.
	// Chain i lands in region i modulo the region count; relayer j of an
	// edge lands in the region of side A (even j) or B (odd j); standbys
	// land on side B.
	Geo *geo.Model
	// Standby adds a passive standby relayer plus a failover supervisor
	// to every edge.
	Standby bool
	// Obs attaches observability (span tracer + metrics registry) to the
	// deployment; nil (the default) disables all instrumentation. Like
	// everything else the deployment builds, it belongs to this
	// deployment alone; experiment drivers leave it nil and only
	// single-run trace exports set it.
	Obs *obs.Obs
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

	dep *Deployment
	fwd *workload.Generator
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

func (l *Link) newGenerator(src, dst *chain.Chain, channel, dir string) *workload.Generator {
	d := l.dep
	g := workload.NewOnChannel(d.Sched, d.RNG, src, dst, channel,
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
	g := workload.NewOnChannel(d.Sched, d.RNG, src, dst, channel,
		l.Relayers[0].EndpointRPC(src.ID), l.Tracker)
	g.AccountPrefix = fmt.Sprintf("route-r%d-h%d", route, hop)
	g.KeepPacketKeys()
	d.attachDriver(g, src, dst)
	l.legGens = append(l.legGens, g)
	return g
}

// attachDriver places a freshly created workload driver in the source
// chain's region and stamps its packets' timeout heights from the
// destination's delivered block frames (see ObserveDestHeight).
func (d *Deployment) attachDriver(g *workload.Generator, src, dst *chain.Chain) {
	d.place(g.Host(), d.chainIndex(src))
	g.ObserveDestHeight(dst.RPC)
}

// ChannelFrom reports the channel identifier on the `from` side of the
// link.
func (l *Link) ChannelFrom(from int) string {
	if l.dep.Chains[from] == l.Pair.A {
		return l.Pair.ChannelAB
	}
	return l.Pair.ChannelBA
}

// Deployment is one instantiated topology. Everything a deployment
// builds (its network, chains, block stores, RPC servers, trackers and
// tracer) is owned by the goroutine running its scheduler, and so takes
// no lock; whole deployments may run side by side.
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

// TotalProcessed reports the events the deployment's scheduler has
// executed.
func (d *Deployment) TotalProcessed() uint64 { return d.Sched.Processed() }

// place puts a host in chain i's region, if the deployment has a region
// model: the chain's own machines, the relayer full nodes attached to it,
// and the relayers and workload drivers that sit with it.
func (d *Deployment) place(h netem.Host, i int) {
	if d.Geo != nil {
		d.Geo.Place(d.Net, h, d.Geo.Model.RegionAt(i))
	}
}

// RelayerSlots is the relayer ordinal count of every edge: the active
// relayers (relayersPerEdge, at least one), then the standby when
// enabled. Chaos events and failover address a relayer by its ordinal.
func RelayerSlots(relayersPerEdge int, standby bool) int {
	n := max(relayersPerEdge, 1)
	if standby {
		n++
	}
	return n
}

// ForwardMemo builds the nested packet-forward memo that routes a
// transfer along path: one ForwardMetadata per intermediate chain, each
// naming that chain's outgoing channel toward the next node and carrying
// the rest of the route in Next. A two-node path needs no forwarding and
// yields "". timeoutBlocks (0 = middleware default) applies per hop.
// Consecutive nodes of path must share an edge.
func (d *Deployment) ForwardMemo(path []int, finalReceiver string, timeoutBlocks int64) string {
	var next *pfm.ForwardMetadata
	// Build innermost-first: hop j runs on chain path[j], sending to
	// path[j+1].
	for j := len(path) - 2; j >= 1; j-- {
		link, _ := d.LinkBetween(path[j], path[j+1])
		next = &pfm.ForwardMetadata{
			Receiver:      finalReceiver,
			Port:          transfer.PortID,
			Channel:       link.ChannelFrom(path[j]),
			TimeoutBlocks: timeoutBlocks,
			Next:          next,
		}
	}
	return pfm.Memo(next)
}

// Deploy instantiates the topology: a shared scheduler/network, one chain
// per node, a seeded IBC channel plus started relayers per edge.
// Chains do not produce blocks until Start. The topology is a preset,
// well formed by construction, so the error is always nil.
func Deploy(t Topology, cfg DeployConfig) (*Deployment, error) {
	if cfg.Network.OneWayLatency == 0 {
		cfg.Network = netem.DefaultWAN()
	}
	perEdge := RelayerSlots(cfg.RelayersPerEdge, false)
	sched := sim.NewScheduler()
	rng := sim.NewRNG(cfg.Seed)
	network := netem.New(sched, rng, cfg.Network)
	d := &Deployment{Topology: t, Sched: sched, Net: network, RNG: rng, Obs: cfg.Obs}
	if cfg.Geo != nil {
		d.Geo = geo.NewAssignment(cfg.Geo)
	}
	for i := range t.Chains {
		c := chain.New(sched, network, chain.Config{
			ChainID:    t.ChainID(i),
			Validators: cfg.Validators,
			FullProofs: cfg.FullProofs,
			Obs:        cfg.Obs,
		})
		if d.Geo != nil {
			// Every chain host — validators, the primary full node and
			// the relayer full nodes attached later — lives in the chain's
			// region.
			i := i
			for _, h := range c.Hosts() {
				d.place(h, i)
			}
			c.OnHost(func(h netem.Host) { d.place(h, i) })
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
			// that chain's region.
			side := e.A
			if j < 0 || j%2 == 1 {
				side = e.B
			}
			r := relayer.New(sched, rng, rcfg, l.Pair)
			d.place(r.Host(), side)
			return r
		}
		for j := 0; j < perEdge; j++ {
			r := newRelayer(j, fmt.Sprintf("hermes-e%d-%d", i, j))
			r.Start()
			l.Relayers = append(l.Relayers, r)
		}
		if cfg.Standby {
			l.Standby = newRelayer(-1, fmt.Sprintf("hermes-e%d-standby", i))
			l.Failover = newFailover(d, l)
		}
		d.Links = append(d.Links, l)
	}
	return d, nil
}

// Start begins block production on every chain.
func (d *Deployment) Start() {
	for _, c := range d.Chains {
		c.Start()
	}
}

// Run drives the simulation to the virtual deadline.
func (d *Deployment) Run(until time.Duration) error { return d.Sched.RunUntil(until) }

// LinkBetween returns the deployed link between two node indices.
func (d *Deployment) LinkBetween(a, b int) (*Link, bool) {
	idx, ok := d.Topology.EdgeBetween(a, b)
	if !ok {
		return nil, false
	}
	return d.Links[idx], true
}
