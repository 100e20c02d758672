// Chaos target: the deployment surface the fault injector drives. Edge
// faults resolve to host sets — each chain's machines form one group,
// each of the edge's relayer machines its own — and apply to the pairs
// crossing groups, so a link fault degrades the IBC path (relayer↔chain
// and chain↔chain traffic) without touching intra-chain consensus.
package topo

import (
	"time"

	"ibcbench/internal/netem"
)

// edgeGroups returns the edge's host groups: chain A's machines, chain
// B's machines, then one group per relayer machine (standby last).
func (d *Deployment) edgeGroups(edge int) [][]netem.Host {
	l := d.Links[edge]
	groups := [][]netem.Host{
		d.Chains[l.Spec.A].Hosts(),
		d.Chains[l.Spec.B].Hosts(),
	}
	for i := 0; i < l.relayerCount(); i++ {
		groups = append(groups, []netem.Host{l.relayerAt(i).Host()})
	}
	return groups
}

// crossPairs visits every directed host pair crossing group boundaries.
func crossPairs(groups [][]netem.Host, fn func(a, b netem.Host)) {
	for i, ga := range groups {
		for j, gb := range groups {
			if i == j {
				continue
			}
			for _, a := range ga {
				for _, b := range gb {
					fn(a, b)
				}
			}
		}
	}
}

// PartitionEdge implements chaos.Target. With relayer < 0 the whole
// link blacks out: every cross-group pair of the edge is severed. With
// relayer >= 0 only that relayer's machine drops off: it loses both
// chains (and the other relayers), which is the primary-host fault of
// the failover experiments.
func (d *Deployment) PartitionEdge(edge, relayerIdx int) {
	d.edgePartition(edge, relayerIdx, d.Net.Partition)
}

// HealEdge implements chaos.Target, reversing PartitionEdge.
func (d *Deployment) HealEdge(edge, relayerIdx int) {
	d.edgePartition(edge, relayerIdx, d.Net.Heal)
}

func (d *Deployment) edgePartition(edge, relayerIdx int, apply func(a, b netem.Host)) {
	groups := d.edgeGroups(edge)
	if relayerIdx < 0 {
		crossPairs(groups, func(a, b netem.Host) { apply(a, b) })
		return
	}
	target := d.Links[edge].relayerAt(relayerIdx).Host()
	for i, g := range groups {
		if i >= 2 && len(g) == 1 && g[0] == target {
			continue
		}
		for _, h := range g {
			apply(target, h)
		}
	}
}

// SetEdgeExtraLatency implements chaos.Target: a latency spike on every
// cross-group pair of the edge (0 clears the spike, leaving any drop
// burst in place).
func (d *Deployment) SetEdgeExtraLatency(edge int, extra time.Duration) {
	crossPairs(d.edgeGroups(edge), func(a, b netem.Host) {
		d.Net.SetLinkExtraLatency(a, b, extra)
	})
}

// SetEdgeExtraDrop implements chaos.Target: a drop burst on every
// cross-group pair of the edge (0 clears the burst only).
func (d *Deployment) SetEdgeExtraDrop(edge int, extra float64) {
	crossPairs(d.edgeGroups(edge), func(a, b netem.Host) {
		d.Net.SetLinkExtraDrop(a, b, extra)
	})
}

// PauseRelayer implements chaos.Target (process crash injection).
func (d *Deployment) PauseRelayer(edge, relayerIdx int) {
	d.Links[edge].relayerAt(relayerIdx).Stop()
}

// ResumeRelayer implements chaos.Target.
func (d *Deployment) ResumeRelayer(edge, relayerIdx int) {
	d.Links[edge].relayerAt(relayerIdx).Resume()
}
