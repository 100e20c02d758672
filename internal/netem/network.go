// Package netem models the network connecting validators, full nodes and
// relayers.
//
// The paper's testbed is five machines on a LAN with an enforced 200 ms
// round-trip latency between any pair (§III-C). Network models a set of
// named hosts with a configurable one-way latency matrix plus jitter, on
// top of the shared sim.Scheduler virtual clock. Messages between
// processes on the same host are delivered with loopback latency.
//
// Beyond the paper's uniform matrix, individual directed host pairs can
// carry their own base latency — the geo region table, installed host
// pair by host pair — plus a transient overlay (extra latency / extra
// drop) used by chaos fault injection for latency spikes and drop
// bursts, and a partition flag severing the pair entirely. Jitter and
// drop rate are the Config's on every pair.
package netem

import (
	"fmt"
	"time"

	"ibcbench/internal/sim"
)

// Host identifies a machine in the testbed.
type Host string

// Config describes the latency characteristics of the emulated network.
type Config struct {
	// OneWayLatency is half the enforced round-trip time between any two
	// distinct hosts. The paper enforces RTT = 200 ms, i.e. 100 ms one-way.
	OneWayLatency time.Duration

	// LoopbackLatency applies between processes on the same host. The
	// paper's relayer talks to its blockchain nodes "via local endpoints".
	LoopbackLatency time.Duration

	// JitterRelStd is the relative standard deviation applied to each
	// delivery, modeling OS scheduling and queueing noise.
	JitterRelStd float64

	// DropRate is the probability a message is silently dropped. The
	// paper's LAN does not lose messages; failure-injection tests set it.
	DropRate float64
}

// DefaultWAN reproduces the paper's emulated wide-area conditions.
func DefaultWAN() Config {
	return Config{
		OneWayLatency:   100 * time.Millisecond,
		LoopbackLatency: 200 * time.Microsecond,
		JitterRelStd:    0.05,
	}
}

// linkState is the resolved per-pair state: the base latency, any chaos
// overlay and the partition flag. One struct — and therefore one map
// lookup — covers everything Send needs to know about a pair.
type linkState struct {
	hasLatency bool
	latency    time.Duration

	// Chaos overlays: transient additive latency and drop, settable
	// independently so a latency spike and a drop burst on the same pair
	// compose instead of clobbering each other.
	extraLatency time.Duration
	extraDrop    float64

	// partitioned counts active partitions on the pair: overlapping
	// faults compose, and a pair stays severed until every partition
	// that hit it has healed.
	partitioned int
}

// Network delivers messages between hosts with emulated latency.
type Network struct {
	sched *sim.Scheduler
	cfg   Config

	// netSeed derives every host's private latency/drop RNG stream, so a
	// host's draw sequence depends only on its own send order, not on
	// which other hosts sent in between.
	netSeed  int64
	hostRNGs map[Host]*sim.RNG

	// links holds per-directed-pair overrides (latencies, overlays,
	// partitions). The hot path consults it with a single lookup, skipped
	// entirely while the map is empty.
	links map[linkKey]*linkState

	sent, dropped uint64
}

type linkKey struct{ from, to Host }

// New returns a network using the given clock, randomness and config.
// One draw from rng seeds the per-host delivery streams.
func New(s *sim.Scheduler, rng *sim.RNG, cfg Config) *Network {
	return &Network{
		sched:    s,
		netSeed:  rng.Int63(),
		hostRNGs: make(map[Host]*sim.RNG),
		cfg:      cfg,
		links:    make(map[linkKey]*linkState),
	}
}

// hostRNG returns the sender's private stream, derived from the network
// seed and the host name so creation order cannot perturb it.
func (n *Network) hostRNG(h Host) *sim.RNG {
	r := n.hostRNGs[h]
	if r == nil {
		seed := n.netSeed
		for _, b := range []byte(h) {
			seed = seed*1099511628211 + int64(b)
		}
		r = sim.NewRNG(seed)
		n.hostRNGs[h] = r
	}
	return r
}

func (n *Network) state(from, to Host) *linkState {
	k := linkKey{from, to}
	st := n.links[k]
	if st == nil {
		st = &linkState{}
		n.links[k] = st
	}
	return st
}

// dropState removes a pair's entry when it no longer overrides anything,
// keeping the empty-map fast path available after heals/clears.
func (n *Network) dropState(from, to Host, st *linkState) {
	if !st.hasLatency && st.partitioned == 0 && st.extraLatency == 0 && st.extraDrop == 0 {
		delete(n.links, linkKey{from, to})
	}
}

// SetLinkLatency overrides the base one-way latency from one host to
// another.
func (n *Network) SetLinkLatency(from, to Host, d time.Duration) {
	st := n.state(from, to)
	st.hasLatency = true
	st.latency = d
}

// SetLinkExtraLatency sets the latency component of a directed pair's
// fault overlay (0 clears it; the drop component is untouched, so
// spikes and bursts on one pair compose).
func (n *Network) SetLinkExtraLatency(from, to Host, extra time.Duration) {
	if extra == 0 {
		if st, ok := n.links[linkKey{from, to}]; ok {
			st.extraLatency = 0
			n.dropState(from, to, st)
		}
		return
	}
	n.state(from, to).extraLatency = extra
}

// SetLinkExtraDrop sets the drop component of a directed pair's fault
// overlay (0 clears it; the latency component is untouched).
func (n *Network) SetLinkExtraDrop(from, to Host, extra float64) {
	if extra == 0 {
		if st, ok := n.links[linkKey{from, to}]; ok {
			st.extraDrop = 0
			n.dropState(from, to, st)
		}
		return
	}
	n.state(from, to).extraDrop = extra
}

// Partition severs communication in both directions between two hosts.
// Partitions are counted: overlapping faults hitting the same pair
// compose, and the pair heals only when every partition has healed.
func (n *Network) Partition(a, b Host) {
	n.state(a, b).partitioned++
	n.state(b, a).partitioned++
}

// Heal removes one partition between two hosts (no-op beyond balance).
func (n *Network) Heal(a, b Host) {
	for _, k := range [2]linkKey{{a, b}, {b, a}} {
		if st, ok := n.links[k]; ok && st.partitioned > 0 {
			st.partitioned--
			n.dropState(k.from, k.to, st)
		}
	}
}

// Sent reports the number of messages handed to the network.
func (n *Network) Sent() uint64 { return n.sent }

// Dropped reports messages lost to DropRate, overlays or partitions.
func (n *Network) Dropped() uint64 { return n.dropped }

// SendHandler fires h on the destination host after the emulated
// latency, and reports whether the message was scheduled: it may be
// dropped by a partition or the configured drop rate (false). A caller
// that counts its messages in flight counts only the scheduled ones. h
// is a record the caller owns (a plain func is a sim.Func), so a send
// allocates nothing.
//
// Latency and drop draws consume the sender host's private stream, so
// they depend only on that host's own send order.
func (n *Network) SendHandler(from, to Host, h sim.Handler) bool {
	n.sent++
	base := n.cfg.OneWayLatency
	drop := n.cfg.DropRate
	if from == to {
		base = n.cfg.LoopbackLatency
	}
	// One lookup resolves latency, overlay and partition together.
	if len(n.links) > 0 {
		if st, ok := n.links[linkKey{from, to}]; ok {
			if st.partitioned > 0 {
				n.dropped++
				return false
			}
			if st.hasLatency {
				base = st.latency
			}
			base += st.extraLatency
			drop += st.extraDrop
		}
	}
	rng := n.hostRNG(from)
	if drop > 0 && rng.Float64() < drop {
		n.dropped++
		return false
	}
	n.sched.AfterHandler(time.Duration(rng.Jitter(float64(base), n.cfg.JitterRelStd)), h)
	return true
}

// String summarizes the network configuration.
func (n *Network) String() string {
	return fmt.Sprintf("netem(one-way=%v loopback=%v jitter=%.2f drop=%.3f overrides=%d)",
		n.cfg.OneWayLatency, n.cfg.LoopbackLatency, n.cfg.JitterRelStd, n.cfg.DropRate, len(n.links))
}
