// Package geo is the region model for geo-distributed deployments: a
// latency table over named regions, and a host→region assignment that
// installs each placed host's one-way latencies to every host placed
// before it as netem link latencies.
//
// The paper's testbed enforces one uniform 200 ms RTT between all
// machines (§III-C); real interchain deployments span continents, so
// chains, validators and relayers placed in different regions should see
// heterogeneous paths. ThreeRegionWAN spans eu-west, us-east and
// ap-south with asymmetric paths; LAN puts every host in one region, the
// paper's LAN runs; no model at all is the paper's uniform testbed. A
// table sets latency only: jitter and drop stay the network config's on
// every path.
package geo

import (
	"fmt"
	"strings"
	"time"

	"ibcbench/internal/netem"
)

// Region names one deployment region.
type Region string

// Model is a region latency table.
type Model struct {
	Name    string
	Regions []Region
	// OneWay[i][j] is the one-way latency from a host in Regions[i] to a
	// host in Regions[j]. The diagonal is the path between distinct
	// hosts of one region.
	OneWay [][]time.Duration
}

// RegionAt returns region i modulo the region count, the round-robin
// placement of chains.
func (m *Model) RegionAt(i int) Region {
	return m.Regions[i%len(m.Regions)]
}

// index resolves a region of the table to its row.
func (m *Model) index(r Region) int {
	for i, have := range m.Regions {
		if have == r {
			return i
		}
	}
	panic(fmt.Sprintf("geo: region %q is not in model %q", r, m.Name))
}

// ThreeRegionWAN models a three-continent deployment with asymmetric
// one-way paths (routing asymmetry makes real one-way latencies differ
// by direction). Within a region, hosts sit on a LAN, matching the
// paper's "<0.5 ms" observation.
func ThreeRegionWAN() *Model {
	const lan, ms = 200 * time.Microsecond, time.Millisecond
	return &Model{
		Name:    "3wan",
		Regions: []Region{"eu-west", "us-east", "ap-south"},
		OneWay: [][]time.Duration{
			{lan, 40 * ms, 90 * ms},
			{45 * ms, lan, 110 * ms},
			{95 * ms, 115 * ms, lan},
		},
	}
}

// LAN is the paper's local-area baseline (§IV): every host in one
// region, 200 µs apart, its "<0.5 ms" observation.
func LAN() *Model {
	return &Model{
		Name:    "lan",
		Regions: []Region{"lan"},
		OneWay:  [][]time.Duration{{200 * time.Microsecond}},
	}
}

// ParseSpec parses a CLI region preset: "3wan" (three-region WAN) or
// "lan" (one LAN region). Empty and "none" return nil (no region model).
func ParseSpec(s string) (*Model, error) {
	switch strings.TrimSpace(strings.ToLower(s)) {
	case "", "none":
		return nil, nil
	case "3wan":
		return ThreeRegionWAN(), nil
	case "lan":
		return LAN(), nil
	default:
		return nil, fmt.Errorf("geo: unknown region preset %q (want 3wan, lan or none)", s)
	}
}

// Assignment places hosts in a model's regions, one deployment's worth.
type Assignment struct {
	Model  *Model
	placed []placement
}

type placement struct {
	host   netem.Host
	region int
}

// NewAssignment returns an empty assignment over the model.
func NewAssignment(m *Model) *Assignment {
	return &Assignment{Model: m}
}

// Place puts h in region r and installs the table's latencies in both
// directions between h and every host placed before it. Placing every
// host this way covers every ordered pair; placing a host again is a
// no-op.
func (a *Assignment) Place(n *netem.Network, h netem.Host, r Region) {
	for _, p := range a.placed {
		if p.host == h {
			return
		}
	}
	ri := a.Model.index(r)
	for _, p := range a.placed {
		n.SetLinkLatency(h, p.host, a.Model.OneWay[ri][p.region])
		n.SetLinkLatency(p.host, h, a.Model.OneWay[p.region][ri])
	}
	a.placed = append(a.placed, placement{h, ri})
}
