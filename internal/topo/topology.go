// Package topo is the N-chain topology and scenario subsystem: a
// declarative interchain graph (chains as nodes, IBC links as edges,
// relayers assigned per edge), a deployer instantiating it on the shared
// discrete-event scheduler, and a scenario layer bundling a topology with
// a workload mix (per-edge rates and multi-hop routes).
//
// The paper evaluates IBC on a fixed two-chain testbed; real Cosmos
// deployments are hubs and meshes. Presets cover the common shapes:
//
//	TwoChain()  A — B                      (the paper's testbed)
//	Line(n)     0 — 1 — 2 — ... — n-1      (packet forwarding chains)
//	Hub(s)      spokes 1..s all linked to hub 0
//	Mesh(n)     every pair linked          (n*(n-1)/2 edges)
package topo

import (
	"fmt"
	"strconv"
	"strings"

	"ibcbench/internal/geo"
)

// ChainSpec declares one blockchain node of the graph.
type ChainSpec struct {
	// ID is the chain identifier; empty defaults to "ibc-<index>".
	ID string
	// Validators overrides the validator-set size (0 = paper default).
	Validators int
	// Region places the chain's machines in a named region of the
	// deployment's geo model (empty = round-robin over the model's
	// regions). Ignored without a geo model.
	Region geo.Region
}

// EdgeSpec declares one IBC link between two chains.
type EdgeSpec struct {
	// A and B index into Topology.Chains. Workload direction conventions
	// treat A as the source side.
	A, B int
	// Relayers overrides the per-edge relayer count (0 = deploy default).
	Relayers int
	// Standby adds a passive standby relayer with failover supervision
	// to this edge (also enabled globally via DeployConfig.Standby).
	Standby bool
}

// Topology is the declarative interchain graph.
type Topology struct {
	Name   string
	Chains []ChainSpec
	Edges  []EdgeSpec
}

// TwoChain is the paper's testbed: two chains, one link.
func TwoChain() Topology {
	return Topology{
		Name:   "two",
		Chains: []ChainSpec{{}, {}},
		Edges:  []EdgeSpec{{A: 0, B: 1}},
	}
}

// Line chains n blockchains in a path 0-1-...-(n-1).
func Line(n int) Topology {
	t := Topology{Name: fmt.Sprintf("line:%d", n)}
	for i := 0; i < n; i++ {
		t.Chains = append(t.Chains, ChainSpec{})
		if i > 0 {
			t.Edges = append(t.Edges, EdgeSpec{A: i - 1, B: i})
		}
	}
	return t
}

// Hub links `spokes` chains to a central hub (node 0), the Cosmos-Hub
// shape. Edges run hub -> spoke so the default workload direction fans
// out of the hub.
func Hub(spokes int) Topology {
	t := Topology{Name: fmt.Sprintf("hub:%d", spokes)}
	t.Chains = append(t.Chains, ChainSpec{ID: "hub"})
	for i := 1; i <= spokes; i++ {
		t.Chains = append(t.Chains, ChainSpec{})
		t.Edges = append(t.Edges, EdgeSpec{A: 0, B: i})
	}
	return t
}

// Mesh links every pair of n chains.
func Mesh(n int) Topology {
	t := Topology{Name: fmt.Sprintf("mesh:%d", n)}
	for i := 0; i < n; i++ {
		t.Chains = append(t.Chains, ChainSpec{})
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			t.Edges = append(t.Edges, EdgeSpec{A: i, B: j})
		}
	}
	return t
}

// ChainID resolves the effective chain identifier of node i.
func (t Topology) ChainID(i int) string {
	if i >= 0 && i < len(t.Chains) && t.Chains[i].ID != "" {
		return t.Chains[i].ID
	}
	return fmt.Sprintf("ibc-%d", i)
}

// Validate checks graph well-formedness: at least two chains, edge
// endpoints in range and distinct, no duplicate links or chain IDs.
func (t Topology) Validate() error {
	if len(t.Chains) < 2 {
		return fmt.Errorf("topo: need at least 2 chains, have %d", len(t.Chains))
	}
	ids := make(map[string]bool, len(t.Chains))
	for i := range t.Chains {
		id := t.ChainID(i)
		if ids[id] {
			return fmt.Errorf("topo: duplicate chain ID %q", id)
		}
		ids[id] = true
	}
	if len(t.Edges) == 0 {
		return fmt.Errorf("topo: no edges")
	}
	seen := make(map[[2]int]bool, len(t.Edges))
	for _, e := range t.Edges {
		if e.A < 0 || e.A >= len(t.Chains) || e.B < 0 || e.B >= len(t.Chains) {
			return fmt.Errorf("topo: edge %d-%d out of range", e.A, e.B)
		}
		if e.A == e.B {
			return fmt.Errorf("topo: self-edge on node %d", e.A)
		}
		key := [2]int{min(e.A, e.B), max(e.A, e.B)}
		if seen[key] {
			return fmt.Errorf("topo: duplicate edge %d-%d", e.A, e.B)
		}
		seen[key] = true
	}
	return nil
}

// EdgeBetween finds the edge index linking nodes a and b (either
// orientation).
func (t Topology) EdgeBetween(a, b int) (int, bool) {
	for i, e := range t.Edges {
		if (e.A == a && e.B == b) || (e.A == b && e.B == a) {
			return i, true
		}
	}
	return 0, false
}

// Route computes a shortest node path from one chain to another by BFS
// over the link graph.
func (t Topology) Route(from, to int) ([]int, error) {
	if from < 0 || from >= len(t.Chains) || to < 0 || to >= len(t.Chains) {
		return nil, fmt.Errorf("topo: route endpoints %d->%d out of range", from, to)
	}
	if from == to {
		return []int{from}, nil
	}
	adj := make(map[int][]int)
	for _, e := range t.Edges {
		adj[e.A] = append(adj[e.A], e.B)
		adj[e.B] = append(adj[e.B], e.A)
	}
	prev := map[int]int{from: from}
	queue := []int{from}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if _, ok := prev[v]; ok {
				continue
			}
			prev[v] = u
			if v == to {
				var path []int
				for n := to; n != from; n = prev[n] {
					path = append(path, n)
				}
				path = append(path, from)
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path, nil
			}
			queue = append(queue, v)
		}
	}
	return nil, fmt.Errorf("topo: no route %d->%d", from, to)
}

// maxSpecSize bounds a preset's size argument. Every node deploys a full
// chain, so a larger graph is a typo or hostile input, and mesh:<n> would
// allocate n^2/2 edges before anything else could reject it.
const maxSpecSize = 256

// ParseSpec parses a CLI topology spec: "two", "line:<n>", "hub:<spokes>"
// or "mesh:<n>", with n at most 256.
func ParseSpec(s string) (Topology, error) {
	kind, arg, hasArg := strings.Cut(strings.TrimSpace(strings.ToLower(s)), ":")
	n := 0
	if hasArg {
		v, err := strconv.Atoi(arg)
		if err != nil || v < 1 || v > maxSpecSize {
			return Topology{}, fmt.Errorf("topo: bad size %q in spec %q", arg, s)
		}
		n = v
	}
	switch kind {
	case "two", "twochain":
		return TwoChain(), nil
	case "line":
		if n < 2 {
			return Topology{}, fmt.Errorf("topo: line needs n>=2 (got %q)", s)
		}
		return Line(n), nil
	case "hub":
		if n < 1 {
			return Topology{}, fmt.Errorf("topo: hub needs spokes>=1 (got %q)", s)
		}
		return Hub(n), nil
	case "mesh":
		if n < 2 {
			return Topology{}, fmt.Errorf("topo: mesh needs n>=2 (got %q)", s)
		}
		return Mesh(n), nil
	default:
		return Topology{}, fmt.Errorf("topo: unknown topology %q (want two|line:n|hub:n|mesh:n)", s)
	}
}
