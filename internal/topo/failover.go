// Failover: per-edge standby relayers with health-probe supervision.
//
// Each supervised edge runs its primary relayers plus one passive
// standby that is deployed (accounts funded, full nodes attached) but
// not subscribed. A supervisor process on the standby's machine pings
// the primary's host over the emulated network every probe interval; a
// partitioned host drops the probe and a paused process answers nothing,
// so either fault starves the pong stream. Once no pong has arrived for
// the detection window the standby takes over: it subscribes to both
// chains, and the relayer's gap-driven clearing — one indexed
// QueryBlockEvents per missed height against the chain's shared event
// index — rebuilds the entire backlog without a per-relayer block
// re-scan, which is what makes takeover cheap.
package topo

import (
	"time"

	"ibcbench/internal/metrics"
	"ibcbench/internal/netem"
	"ibcbench/internal/relayer"
	"ibcbench/internal/sim"
	"ibcbench/internal/simconf"
)

// FailoverReport is the per-edge failover slice of a scenario result.
type FailoverReport struct {
	// Takeovers counts standby activations.
	Takeovers int
	// Downtime holds one sample per outage window: detection until the
	// primary answered probes again (or the run ended).
	Downtime metrics.Series
	// Standby is the standby relayer's work counters (all zero if it
	// never activated).
	Standby relayer.Stats
}

// Failover supervises one edge's primary relayer with a standby.
type Failover struct {
	dep     *Deployment
	link    *Link
	primary *relayer.Relayer
	standby *relayer.Relayer
	host    netem.Host

	lastPong  time.Duration
	active    bool
	down      bool
	downSince time.Duration

	takeovers  int
	takeoverAt []time.Duration
	downtime   metrics.Series
}

// failoverDetectBlocks is the supervisor's detection window in block
// intervals: missed health probes for this long activate the standby.
const failoverDetectBlocks = 2

// newFailover wires a supervisor for the link's primary (relayer 0) and
// standby, probing from the standby's host every fifth of a block
// interval.
func newFailover(d *Deployment, l *Link) *Failover {
	f := &Failover{
		dep:     d,
		link:    l,
		primary: l.Relayers[0],
		standby: l.Standby,
		host:    l.Standby.Host(),
	}
	f.downtime.Name = "downtime"
	interval := simconf.MinBlockInterval / 5
	d.Sched.Tick(interval, func(*sim.Ticker) { f.probe() })
	return f
}

// probe sends one health ping and evaluates the detection window.
func (f *Failover) probe() {
	now := f.dep.Sched.Now()
	f.dep.Net.SendHandler(f.host, f.primary.Host(), (*failoverPing)(f))
	if now-f.lastPong <= failoverDetectBlocks*simconf.MinBlockInterval {
		return
	}
	if !f.down {
		f.down = true
		f.downSince = now
	}
	if !f.active {
		f.active = true
		f.takeovers++
		f.takeoverAt = append(f.takeoverAt, now)
		// Takeover: subscribe the standby; its first frames arrive with
		// a height gap covering everything it missed, so the clearing
		// pass rebuilds the backlog from the shared event index.
		f.standby.Start()
	}
}

// failoverPing is a Failover seen as the handler of a ping's arrival at
// the primary's host, and failoverPong of a pong's at the standby's: the
// probe allocates nothing.
type (
	failoverPing Failover
	failoverPong Failover
)

// Fire answers the ping, unless the primary crashed.
func (p *failoverPing) Fire() {
	f := (*Failover)(p)
	if f.primary.Stopped() {
		return // crashed process: no pong
	}
	f.dep.Net.SendHandler(f.primary.Host(), f.host, (*failoverPong)(f))
}

// Fire records the pong.
func (p *failoverPong) Fire() { (*Failover)(p).pong() }

// pong records a healthy primary, closing any open outage window.
func (f *Failover) pong() {
	now := f.dep.Sched.Now()
	f.lastPong = now
	if f.down {
		f.downtime.Add(now - f.downSince)
		f.down = false
	}
}

// TakeoverTimes returns the virtual times of each standby activation —
// trace export marks them as instants on the supervised edge's track.
func (f *Failover) TakeoverTimes() []time.Duration { return f.takeoverAt }

// Report snapshots the failover metrics, closing an outage still open
// at the end of the run.
func (f *Failover) Report() *FailoverReport {
	rep := &FailoverReport{
		Takeovers: f.takeovers,
		Downtime:  f.downtime,
		Standby:   f.standby.Stats(),
	}
	if f.down {
		rep.Downtime.Add(f.dep.Sched.Now() - f.downSince)
	}
	return rep
}
