// Package geo is the region model for geo-distributed deployments: named
// regions connected by an inter-region one-way latency/jitter/drop
// matrix, and a host→region assignment that installs each placed host's
// netem link overrides to every host placed before it.
//
// The paper's testbed enforces one uniform 200 ms RTT between all
// machines (§III-C); real interchain deployments span continents, so
// chains, validators and relayers placed in different regions should see
// heterogeneous paths. The one preset, ThreeRegionWAN, spans eu-west,
// us-east and ap-south with asymmetric paths; no model at all is the
// paper's uniform testbed.
package geo

import (
	"fmt"
	"strings"
	"time"

	"ibcbench/internal/netem"
)

// Region names one deployment region.
type Region string

// Path describes one directed inter-region path. Jitter/Drop semantics
// follow netem.Profile: negative values inherit the network config.
type Path struct {
	OneWay time.Duration
	Jitter float64
	Drop   float64
}

// Model is a set of regions plus the directed path matrix between them.
type Model struct {
	Name    string
	Regions []Region
	// Intra is the path between distinct hosts of the same region
	// (typically LAN-like).
	Intra Path
	// paths maps directed region pairs; both directions must be present
	// for every distinct pair (asymmetric matrices are allowed).
	paths map[[2]Region]Path
}

// NewModel starts an empty model with the given intra-region path.
func NewModel(name string, intra Path) *Model {
	return &Model{Name: name, Intra: intra, paths: make(map[[2]Region]Path)}
}

// AddRegion appends a region (idempotent).
func (m *Model) AddRegion(r Region) {
	for _, have := range m.Regions {
		if have == r {
			return
		}
	}
	m.Regions = append(m.Regions, r)
}

// SetPath sets the directed path a -> b.
func (m *Model) SetPath(a, b Region, p Path) {
	m.AddRegion(a)
	m.AddRegion(b)
	m.paths[[2]Region{a, b}] = p
}

// Path resolves the directed path between two regions (a == b → Intra).
func (m *Model) Path(a, b Region) (Path, bool) {
	if a == b {
		return m.Intra, true
	}
	p, ok := m.paths[[2]Region{a, b}]
	return p, ok
}

// RegionAt returns region i modulo the region count, the round-robin
// placement of chains.
func (m *Model) RegionAt(i int) Region {
	return m.Regions[i%len(m.Regions)]
}

// Validate checks the matrix is complete: at least one region, and every
// ordered pair of distinct regions has a path.
func (m *Model) Validate() error {
	if len(m.Regions) == 0 {
		return fmt.Errorf("geo: model %q has no regions", m.Name)
	}
	for _, a := range m.Regions {
		for _, b := range m.Regions {
			if a == b {
				continue
			}
			if _, ok := m.paths[[2]Region{a, b}]; !ok {
				return fmt.Errorf("geo: model %q missing path %s -> %s", m.Name, a, b)
			}
		}
	}
	return nil
}

// --- presets -----------------------------------------------------------------

// lanIntra is the within-region path of the preset, matching the
// paper's "<0.5 ms" LAN observation.
func lanIntra() Path {
	return Path{OneWay: 200 * time.Microsecond, Jitter: -1, Drop: -1}
}

// ThreeRegionWAN models a three-continent deployment with asymmetric
// one-way paths (routing asymmetry makes real one-way latencies differ
// by direction).
func ThreeRegionWAN() *Model {
	m := NewModel("3wan", lanIntra())
	const eu, us, ap = Region("eu-west"), Region("us-east"), Region("ap-south")
	set := func(a, b Region, fwd, rev time.Duration) {
		m.SetPath(a, b, Path{OneWay: fwd, Jitter: -1, Drop: -1})
		m.SetPath(b, a, Path{OneWay: rev, Jitter: -1, Drop: -1})
	}
	set(eu, us, 40*time.Millisecond, 45*time.Millisecond)
	set(eu, ap, 90*time.Millisecond, 95*time.Millisecond)
	set(us, ap, 110*time.Millisecond, 115*time.Millisecond)
	return m
}

// ParseSpec parses a CLI region preset: "3wan" (three-region WAN). Empty
// and "none" return nil (no region model).
func ParseSpec(s string) (*Model, error) {
	switch strings.TrimSpace(strings.ToLower(s)) {
	case "", "none":
		return nil, nil
	case "3wan":
		return ThreeRegionWAN(), nil
	default:
		return nil, fmt.Errorf("geo: unknown region preset %q (want 3wan or none)", s)
	}
}

// --- assignment --------------------------------------------------------------

// Assignment maps hosts to a model's regions and installs per-host-pair
// netem overrides as hosts are placed.
type Assignment struct {
	model      *Model
	hostRegion map[netem.Host]Region
}

// NewAssignment validates the model and returns an empty assignment.
func NewAssignment(m *Model) (*Assignment, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &Assignment{model: m, hostRegion: make(map[netem.Host]Region)}, nil
}

// Place assigns a host to a region.
func (a *Assignment) Place(h netem.Host, r Region) error {
	for _, have := range a.model.Regions {
		if have == r {
			a.hostRegion[h] = r
			return nil
		}
	}
	return fmt.Errorf("geo: placing %s in unknown region %q", h, r)
}

// PlaceAndApply places one host and installs the paths in both
// directions between it and every host already placed (same-region pairs
// get Intra). Placing every host this way covers every ordered pair.
func (a *Assignment) PlaceAndApply(n *netem.Network, h netem.Host, r Region) error {
	if err := a.Place(h, r); err != nil {
		return err
	}
	for other, or := range a.hostRegion {
		if other == h {
			continue
		}
		if p, ok := a.model.Path(r, or); ok {
			n.SetLinkProfile(h, other, netem.Profile{OneWay: p.OneWay, Jitter: p.Jitter, Drop: p.Drop})
		}
		if p, ok := a.model.Path(or, r); ok {
			n.SetLinkProfile(other, h, netem.Profile{OneWay: p.OneWay, Jitter: p.Jitter, Drop: p.Drop})
		}
	}
	return nil
}
