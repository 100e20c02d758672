// Package geo is the region model for geo-distributed deployments: named
// regions connected by an inter-region one-way latency/jitter/drop
// matrix, host→region assignment, and a compiler that turns both into
// the full per-host-pair netem link override set.
//
// The paper's testbed enforces one uniform 200 ms RTT between all
// machines (§III-C); real interchain deployments span continents, so
// chains, validators and relayers placed in different regions should see
// heterogeneous paths. Presets cover the common shapes:
//
//	ThreeRegionWAN()   eu-west / us-east / ap-south, asymmetric paths
//	HubAndSpoke(n)     a core region plus n edge regions; edge-to-edge
//	                   paths are slower than edge-to-core
//	Uniform(k, d)      k regions, every inter-region path d one-way
//	                   (the paper's testbed as a degenerate region model)
package geo

import (
	"fmt"
	"sort"
	"strconv"
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

// SetSymmetric sets both directions of a pair to the same path.
func (m *Model) SetSymmetric(a, b Region, p Path) {
	m.SetPath(a, b, p)
	m.SetPath(b, a, p)
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
// default placement for chains without an explicit region.
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

// lanIntra is the within-region path of the presets, matching the
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

// HubAndSpoke models one core region plus n edge regions: edge-to-core
// is one WAN hop, edge-to-edge hairpins through the core and costs two.
func HubAndSpoke(spokes int) *Model {
	m := NewModel(fmt.Sprintf("hubspoke:%d", spokes), lanIntra())
	const hop = 50 * time.Millisecond
	core := Region("core")
	m.AddRegion(core)
	edges := make([]Region, spokes)
	for i := range edges {
		edges[i] = Region(fmt.Sprintf("edge-%d", i+1))
		m.SetSymmetric(core, edges[i], Path{OneWay: hop, Jitter: -1, Drop: -1})
	}
	for i := range edges {
		for j := i + 1; j < len(edges); j++ {
			m.SetSymmetric(edges[i], edges[j], Path{OneWay: 2 * hop, Jitter: -1, Drop: -1})
		}
	}
	return m
}

// Uniform models k regions with one uniform inter-region latency — the
// paper's single-condition testbed expressed as a region model.
func Uniform(k int, oneWay time.Duration) *Model {
	m := NewModel(fmt.Sprintf("uniform:%d", k), lanIntra())
	regions := make([]Region, k)
	for i := range regions {
		regions[i] = Region(fmt.Sprintf("region-%d", i))
		m.AddRegion(regions[i])
	}
	for i := range regions {
		for j := i + 1; j < len(regions); j++ {
			m.SetSymmetric(regions[i], regions[j], Path{OneWay: oneWay, Jitter: -1, Drop: -1})
		}
	}
	return m
}

// maxSpecSize bounds a preset's size argument: a model holds a path per
// region pair, so a hostile uniform:<k> would allocate k^2 paths.
const maxSpecSize = 256

// ParseSpec parses a CLI region preset: "3wan" (three-region WAN),
// "hubspoke:<n>" or "uniform:<k>", with n and k at most 256. Empty and
// "none" return nil (no region model).
func ParseSpec(s string) (*Model, error) {
	spec := strings.TrimSpace(strings.ToLower(s))
	if spec == "" || spec == "none" {
		return nil, nil
	}
	kind, arg, hasArg := strings.Cut(spec, ":")
	n := 0
	if hasArg {
		v, err := strconv.Atoi(arg)
		if err != nil || v < 1 || v > maxSpecSize {
			return nil, fmt.Errorf("geo: bad size %q in region spec %q", arg, s)
		}
		n = v
	}
	switch kind {
	case "3wan", "three-region-wan":
		return ThreeRegionWAN(), nil
	case "hubspoke":
		if n < 1 {
			return nil, fmt.Errorf("geo: hubspoke needs spokes>=1 (got %q)", s)
		}
		return HubAndSpoke(n), nil
	case "uniform":
		if n < 2 {
			return nil, fmt.Errorf("geo: uniform needs k>=2 (got %q)", s)
		}
		return Uniform(n, 100*time.Millisecond), nil
	default:
		return nil, fmt.Errorf("geo: unknown region preset %q (want 3wan|hubspoke:n|uniform:k)", s)
	}
}

// --- assignment + compiler ---------------------------------------------------

// Assignment maps hosts to a model's regions and compiles per-host-pair
// netem overrides.
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

// Model returns the assignment's region model.
func (a *Assignment) Model() *Model { return a.model }

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

// RegionOf reports a host's region.
func (a *Assignment) RegionOf(h netem.Host) (Region, bool) {
	r, ok := a.hostRegion[h]
	return r, ok
}

// Hosts returns the assigned hosts in deterministic (sorted) order.
func (a *Assignment) Hosts() []netem.Host {
	out := make([]netem.Host, 0, len(a.hostRegion))
	for h := range a.hostRegion {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LinkOverride is one compiled directed host-pair override.
type LinkOverride struct {
	From, To netem.Host
	Path     Path
}

// Compile emits the full per-host-pair directed override set: every
// ordered pair of distinct assigned hosts gets the path of its region
// pair (same-region pairs get Intra). Order is deterministic.
func (a *Assignment) Compile() []LinkOverride {
	hosts := a.Hosts()
	out := make([]LinkOverride, 0, len(hosts)*(len(hosts)-1))
	for _, from := range hosts {
		for _, to := range hosts {
			if from == to {
				continue
			}
			p, ok := a.model.Path(a.hostRegion[from], a.hostRegion[to])
			if !ok {
				// Unreachable on validated models.
				continue
			}
			out = append(out, LinkOverride{From: from, To: to, Path: p})
		}
	}
	return out
}

// Apply compiles the assignment and installs every override on the
// network.
func (a *Assignment) Apply(n *netem.Network) {
	for _, o := range a.Compile() {
		n.SetLinkProfile(o.From, o.To, netem.Profile{OneWay: o.Path.OneWay, Jitter: o.Path.Jitter, Drop: o.Path.Drop})
	}
}

// PlaceAndApply places one late-created host (workload drivers and
// relayer full nodes appear after deployment compiles the initial set)
// and installs only the pairs involving it.
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
