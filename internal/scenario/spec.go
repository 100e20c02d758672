// Package scenario is the declarative run description layer: one JSON
// spec covers topology, geo regions, deploy knobs, workload (per-edge
// rates + multi-hop routes), a chaos fault timeline, and the invariant
// assertions checked after the run — everything an experiment driver
// expresses in Go, as data.
//
// Specs round-trip: Parse(Encode(s)) == s, and Encode is canonical
// (stable field order, sorted maps, duration strings), so a spec file is
// diffable and a chaos-search counterexample commits as a regression
// test. Compile lowers a spec onto the existing topo/chaos/geo APIs
// without behavioural additions of its own — a spec equivalent to a
// hand-built topo.Scenario produces a byte-identical same-seed
// topo.Result.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"time"

	"ibcbench/internal/topo"
)

// Duration is a time.Duration that marshals as its string form ("1m30s")
// so spec files stay human-readable. It accepts either a duration string
// or an integer nanosecond count when parsing.
type Duration time.Duration

// D converts to the stdlib type.
func (d Duration) D() time.Duration { return time.Duration(d) }

// String renders the stdlib form.
func (d Duration) String() string { return time.Duration(d).String() }

// MarshalJSON renders the duration string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "150ms"-style strings or nanosecond integers.
func (d *Duration) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("scenario: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(data, &ns); err != nil {
		return err
	}
	*d = Duration(ns)
	return nil
}

// TopologySpec names the interchain graph: either a preset string
// understood by topo.ParseSpec ("two", "line:4", "hub:3", "mesh:3") or
// an explicit chain/edge list. Exactly one form must be used.
type TopologySpec struct {
	Preset string      `json:"preset,omitempty"`
	Chains []ChainSpec `json:"chains,omitempty"`
	Edges  []EdgeSpec  `json:"edges,omitempty"`
}

// ChainSpec is one explicit chain node.
type ChainSpec struct {
	// ID overrides the default "ibc-<index>" chain identifier.
	ID string `json:"id,omitempty"`
	// Validators overrides the validator-set size (0 = paper default).
	Validators int `json:"validators,omitempty"`
	// Region pins the chain into a named region of the geo model.
	Region string `json:"region,omitempty"`
}

// EdgeSpec is one explicit inter-chain link.
type EdgeSpec struct {
	A int `json:"a"`
	B int `json:"b"`
	// Relayers overrides the per-edge relayer count (0 = deploy default).
	Relayers int `json:"relayers,omitempty"`
	// Standby adds a passive standby relayer with failover supervision.
	Standby bool `json:"standby,omitempty"`
}

// DeploySpec carries the deploy knobs a spec can set; zero values defer
// to the topo.DeployConfig defaults.
type DeploySpec struct {
	Validators          int   `json:"validators,omitempty"`
	RelayersPerEdge     int   `json:"relayersPerEdge,omitempty"`
	Standby             bool  `json:"standby,omitempty"`
	FullProofs          bool  `json:"fullProofs,omitempty"`
	ClearIntervalBlocks int64 `json:"clearIntervalBlocks,omitempty"`
	ParallelWorkers     int   `json:"parallelWorkers,omitempty"`
}

// RouteSpec is one multi-hop transfer flow (topo.Route as data).
type RouteSpec struct {
	Path      []int `json:"path"`
	Transfers int   `json:"transfers"`
	Forwarded bool  `json:"forwarded,omitempty"`
	// TimeoutBlocks overrides the forward middleware's per-hop timeout
	// margin (Forwarded mode only; tiny values inject hop timeouts).
	TimeoutBlocks int64 `json:"timeoutBlocks,omitempty"`
}

// WorkloadSpec describes the constant-rate traffic and routes.
type WorkloadSpec struct {
	// Rate applies to every edge (requests/second, A->B). Zero means no
	// blanket rate; per-edge overrides below still apply.
	Rate int `json:"rate,omitempty"`
	// EdgeRates overrides single edges: "<edge index>" -> rate. A zero
	// rate removes the blanket rate from that edge.
	EdgeRates map[string]int `json:"edgeRates,omitempty"`
	// Windows is the number of constant-rate submission windows
	// (0 = the topo default of 10).
	Windows int `json:"windows,omitempty"`
	// Routes are multi-hop flows started at scenario begin.
	Routes []RouteSpec `json:"routes,omitempty"`
}

// EventSpec is one chaos timeline entry. Kind names match
// chaos.Kind.String(): partition, heal, latency-spike, drop-burst,
// relayer-pause, relayer-resume.
type EventSpec struct {
	At   Duration `json:"at"`
	Kind string   `json:"kind"`
	Edge int      `json:"edge"`
	// Relayer targets one relayer ordinal (the standby is the last). For
	// partition/heal, omitted or -1 severs the whole link; for
	// relayer-pause/resume, omitted means relayer 0.
	Relayer *int `json:"relayer,omitempty"`
	// ExtraLatency is the latency-spike magnitude (0 clears the spike).
	ExtraLatency Duration `json:"extraLatency,omitempty"`
	// ExtraDrop is the drop-burst loss probability (0 clears the burst).
	ExtraDrop float64 `json:"extraDrop,omitempty"`
}

// FaultSpace declares the randomized timeline space chaos search draws
// candidates from. Absent fields fall back to permissive defaults
// resolved at search time.
type FaultSpace struct {
	// Kinds restricts the fault types generated (fault names as in
	// EventSpec.Kind, recovery kinds implied). Empty = all fault kinds.
	Kinds []string `json:"kinds,omitempty"`
	// Edges restricts targeted edges. Empty = every edge.
	Edges []int `json:"edges,omitempty"`
	// MaxEvents bounds the fault count per candidate (recovery events
	// not counted). 0 = 4.
	MaxEvents int `json:"maxEvents,omitempty"`
	// Horizon bounds fault injection times to [0, Horizon]. 0 = 60s.
	Horizon Duration `json:"horizon,omitempty"`
	// MaxFaultWindow bounds the duration between a fault and its paired
	// recovery event. 0 = 30s.
	MaxFaultWindow Duration `json:"maxFaultWindow,omitempty"`
	// MaxExtraLatency bounds latency-spike magnitudes. 0 = 400ms.
	MaxExtraLatency Duration `json:"maxExtraLatency,omitempty"`
	// MaxExtraDrop bounds drop-burst probabilities. 0 = 0.5.
	MaxExtraDrop float64 `json:"maxExtraDrop,omitempty"`
	// Unhealed is the probability a generated fault is left open — no
	// recovery event — planting permanent partitions and crashed
	// relayers. 0 = every fault recovers.
	Unhealed float64 `json:"unhealed,omitempty"`
}

// Spec is one complete declarative scenario.
type Spec struct {
	Name     string       `json:"name"`
	Topology TopologySpec `json:"topology"`
	// Regions selects a geo model by spec string ("3wan", "hubspoke:4",
	// "uniform:3"); empty or "none" = no geo model.
	Regions  string       `json:"regions,omitempty"`
	Deploy   DeploySpec   `json:"deploy"`
	Workload WorkloadSpec `json:"workload"`
	Chaos    []EventSpec  `json:"chaos,omitempty"`
	// Assertions names the invariants checked after the run; empty means
	// the full default set (see DefaultAssertions).
	Assertions []string `json:"assertions,omitempty"`
	// Faults declares the chaos-search space (nil = spec not searchable).
	Faults *FaultSpace `json:"faults,omitempty"`
	// Seed is the default run seed (0 = 1).
	Seed int64 `json:"seed,omitempty"`
	// Until fixes the virtual deadline (0 = derived from the workload).
	Until Duration `json:"until,omitempty"`
	// SettleBlocks extends the derived deadline by that many block
	// intervals so refunds and backlog clearing quiesce before the
	// assertions run. Ignored when Until is set.
	SettleBlocks int `json:"settleBlocks,omitempty"`
	// RecordCurves includes per-edge cleared-backlog curves in results.
	RecordCurves bool `json:"recordCurves,omitempty"`
}

// Parse decodes a spec strictly (unknown fields are errors — typos in a
// committed spec must not silently change the run) and validates it.
func Parse(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: parse: %w", err)
	}
	// Trailing content after the document is a malformed file.
	if dec.More() {
		return Spec{}, fmt.Errorf("scenario: parse: trailing data after spec document")
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Encode renders the canonical byte form: two-space indent, stable field
// order (struct order), sorted maps, trailing newline. Parse(Encode(s))
// round-trips, and byte-identical specs mean byte-identical runs.
func Encode(s Spec) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DefaultAssertions is the invariant set checked when a spec names none.
func DefaultAssertions() []string {
	return []string{AssertConservation, AssertNoStuckPackets, AssertTimeoutRefunds}
}

// eventKinds maps spec kind names onto chaos kinds (chaos.Kind.String()
// is the inverse).
var eventKinds = map[string]int{
	"partition":      1, // chaos.PartitionLink
	"heal":           2, // chaos.HealLink
	"latency-spike":  3, // chaos.LatencySpike
	"drop-burst":     4, // chaos.DropBurst
	"relayer-pause":  5, // chaos.RelayerPause
	"relayer-resume": 6, // chaos.RelayerResume
}

// Validate checks everything checkable without deploying: topology
// well-formedness, region spec, route paths, chaos event targets against
// the per-edge relayer counts the deploy will produce, assertion names,
// and fault-space sanity. Compile re-runs it, so a spec that validates
// compiles.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	tp, err := s.topology()
	if err != nil {
		return err
	}
	if _, err := parseGeo(s.Regions); err != nil {
		return err
	}
	for edge := range s.Workload.EdgeRates {
		i, err := strconv.Atoi(edge)
		if err != nil {
			return fmt.Errorf("scenario: edgeRates key %q is not an edge index", edge)
		}
		if i < 0 || i >= len(tp.Edges) {
			return fmt.Errorf("scenario: edgeRates targets edge %d of %d", i, len(tp.Edges))
		}
		if s.Workload.EdgeRates[edge] < 0 {
			return fmt.Errorf("scenario: edge %d has negative rate", i)
		}
	}
	if s.Workload.Rate < 0 {
		return fmt.Errorf("scenario: negative workload rate %d", s.Workload.Rate)
	}
	for i, rt := range s.Workload.Routes {
		if len(rt.Path) < 2 {
			return fmt.Errorf("scenario: route %d path %v too short", i, rt.Path)
		}
		if rt.Transfers <= 0 {
			return fmt.Errorf("scenario: route %d has no transfers", i)
		}
		for h := 0; h+1 < len(rt.Path); h++ {
			if _, ok := tp.EdgeBetween(rt.Path[h], rt.Path[h+1]); !ok {
				return fmt.Errorf("scenario: route %d hops %d->%d without an edge", i, rt.Path[h], rt.Path[h+1])
			}
		}
	}
	for i, ev := range s.Chaos {
		if err := s.validateEvent(i, ev, tp); err != nil {
			return err
		}
	}
	for _, name := range s.Assertions {
		if !knownAssertion(name) {
			return fmt.Errorf("scenario: unknown assertion %q (have %v)", name, DefaultAssertions())
		}
	}
	if s.Faults != nil {
		if err := s.validateFaults(tp); err != nil {
			return err
		}
	}
	if s.Seed < 0 {
		return fmt.Errorf("scenario: negative seed %d", s.Seed)
	}
	return nil
}

func (s Spec) validateEvent(i int, ev EventSpec, tp topo.Topology) error {
	if ev.At < 0 {
		return fmt.Errorf("scenario: chaos event %d at negative time %v", i, ev.At)
	}
	if _, ok := eventKinds[ev.Kind]; !ok {
		return fmt.Errorf("scenario: chaos event %d has unknown kind %q", i, ev.Kind)
	}
	if ev.Edge < 0 || ev.Edge >= len(tp.Edges) {
		return fmt.Errorf("scenario: chaos event %d targets edge %d of %d", i, ev.Edge, len(tp.Edges))
	}
	n := s.edgeRelayerSlots(tp, ev.Edge)
	switch ev.Kind {
	case "partition", "heal":
		if ev.Relayer != nil && *ev.Relayer >= n {
			return fmt.Errorf("scenario: chaos event %d targets relayer %d of %d on edge %d", i, *ev.Relayer, n, ev.Edge)
		}
	case "relayer-pause", "relayer-resume":
		if ev.Relayer != nil && (*ev.Relayer < 0 || *ev.Relayer >= n) {
			return fmt.Errorf("scenario: chaos event %d targets relayer %d of %d on edge %d", i, *ev.Relayer, n, ev.Edge)
		}
	case "latency-spike":
		if ev.ExtraLatency < 0 {
			return fmt.Errorf("scenario: chaos event %d has negative latency spike", i)
		}
	case "drop-burst":
		if ev.ExtraDrop < 0 || ev.ExtraDrop > 1 {
			return fmt.Errorf("scenario: chaos event %d drop burst %.3f outside [0,1]", i, ev.ExtraDrop)
		}
	}
	return nil
}

func (s Spec) validateFaults(tp topo.Topology) error {
	f := s.Faults
	for _, k := range f.Kinds {
		if _, ok := eventKinds[k]; !ok {
			return fmt.Errorf("scenario: fault space names unknown kind %q", k)
		}
		if k == "heal" || k == "relayer-resume" {
			return fmt.Errorf("scenario: fault space lists recovery kind %q (recoveries are generated, not drawn)", k)
		}
	}
	for _, e := range f.Edges {
		if e < 0 || e >= len(tp.Edges) {
			return fmt.Errorf("scenario: fault space targets edge %d of %d", e, len(tp.Edges))
		}
	}
	if f.MaxEvents < 0 {
		return fmt.Errorf("scenario: fault space maxEvents %d negative", f.MaxEvents)
	}
	if f.Horizon < 0 || f.MaxFaultWindow < 0 || f.MaxExtraLatency < 0 {
		return fmt.Errorf("scenario: fault space has a negative duration bound")
	}
	if f.MaxExtraDrop < 0 || f.MaxExtraDrop > 1 {
		return fmt.Errorf("scenario: fault space maxExtraDrop %.3f outside [0,1]", f.MaxExtraDrop)
	}
	if f.Unhealed < 0 || f.Unhealed > 1 {
		return fmt.Errorf("scenario: fault space unhealed %.3f outside [0,1]", f.Unhealed)
	}
	return nil
}

// edgeRelayerSlots mirrors the deploy wiring: per-edge override or
// deploy default (min 1), plus one standby slot when enabled.
func (s Spec) edgeRelayerSlots(tp topo.Topology, edge int) int {
	n := tp.Edges[edge].Relayers
	if n <= 0 {
		n = s.Deploy.RelayersPerEdge
	}
	if n <= 0 {
		n = 1
	}
	if s.Deploy.Standby || tp.Edges[edge].Standby {
		n++
	}
	return n
}

// sortedEdgeKeys returns EdgeRates keys in numeric order; callers have
// validated that every key parses.
func sortedEdgeKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, _ := strconv.Atoi(keys[i])
		b, _ := strconv.Atoi(keys[j])
		return a < b
	})
	return keys
}
