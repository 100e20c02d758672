// Package scenario is the declarative run description layer: one JSON
// spec covers the topology preset, the region preset (a geo table, or
// "lan" for the paper's LAN runs), deploy knobs, the workload (one rate,
// or a total split over windows or injected into one block, on every
// edge, plus multi-hop routes), a chaos fault timeline, the stop rule (a
// deadline, or a height chain 0 must commit) and the invariant
// assertions checked after the run: everything an experiment does, as
// data. Every paper figure is a set of specs run through Run, and the
// named built-in specs sit beside the figures in one catalogue
// (internal/experiments) that the CLI reads.
//
// Specs round-trip: Parse(Encode(s)) == s, and Encode is canonical
// (stable field order, duration strings), so a spec file is diffable and
// a chaos-search counterexample commits as a regression test. The
// workload block is topo.Workload itself, so a file's traffic is the
// run's with no copy between them. Compile lowers the rest (compile.go)
// without behavioural additions of its own — a spec equivalent to a
// hand-built topo.Scenario produces a byte-identical same-seed
// topo.Result.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"ibcbench/internal/chaos"
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

// TopologySpec names the interchain graph by a preset string understood
// by topo.ParseSpec ("two", "line:4", "hub:3", "mesh:3").
type TopologySpec struct {
	Preset string `json:"preset,omitempty"`
}

// DeploySpec carries the deploy knobs a spec can set; zero values defer
// to the topo.DeployConfig defaults.
type DeploySpec struct {
	Validators          int   `json:"validators,omitempty"`
	RelayersPerEdge     int   `json:"relayersPerEdge,omitempty"`
	Standby             bool  `json:"standby,omitempty"`
	FullProofs          bool  `json:"fullProofs,omitempty"`
	ClearIntervalBlocks int64 `json:"clearIntervalBlocks,omitempty"`
	// ParallelWorkers has no effect: every run goes through one serial
	// scheduler. It is still parsed, and a negative value is still
	// rejected, because the benchmark's mesh8-par2 workload sets it.
	// The benchmark change that retires mesh8-par2 deletes the field,
	// and from then on a spec that sets it is rejected.
	ParallelWorkers int `json:"parallelWorkers,omitempty"`
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
// resolved at search time. Every edge is a target, and fault magnitudes
// are search's constants (maxExtraLatency, maxExtraDrop).
type FaultSpace struct {
	// Kinds restricts the fault types generated (fault names as in
	// EventSpec.Kind, recovery kinds implied). Empty = all fault kinds.
	Kinds []string `json:"kinds,omitempty"`
	// MaxEvents bounds the fault count per candidate (recovery events
	// not counted). 0 = 4.
	MaxEvents int `json:"maxEvents,omitempty"`
	// Horizon bounds fault injection times to [0, Horizon]. 0 = 60s.
	Horizon Duration `json:"horizon,omitempty"`
	// MaxFaultWindow bounds the duration between a fault and its paired
	// recovery event. 0 = 30s.
	MaxFaultWindow Duration `json:"maxFaultWindow,omitempty"`
	// Unhealed is the probability a generated fault is left open — no
	// recovery event — planting permanent partitions and crashed
	// relayers. 0 = every fault recovers.
	Unhealed float64 `json:"unhealed,omitempty"`
}

// Spec is one complete declarative scenario.
type Spec struct {
	Name     string       `json:"name"`
	Topology TopologySpec `json:"topology"`
	// Regions selects a geo model by spec string ("3wan", or "lan": one
	// region at the paper's sub-millisecond LAN latency); empty or "none"
	// = no geo model, the paper's uniform 200 ms WAN.
	Regions  string        `json:"regions,omitempty"`
	Deploy   DeploySpec    `json:"deploy"`
	Workload topo.Workload `json:"workload"`
	Chaos    []EventSpec   `json:"chaos,omitempty"`
	// Assertions names the invariants checked after the run; empty means
	// the full default set (see DefaultAssertions).
	Assertions []string `json:"assertions,omitempty"`
	// Faults declares the chaos-search space (nil = spec not searchable).
	Faults *FaultSpace `json:"faults,omitempty"`
	// Seed is the default run seed (0 = 1).
	Seed int64 `json:"seed,omitempty"`
	// Until fixes the virtual deadline (0 = derived from the workload).
	Until Duration `json:"until,omitempty"`
	// UntilHeight stops the run early, at the first block-interval step
	// at which chain 0 has committed this height (0 = run to the
	// deadline, which still bounds it).
	UntilHeight int64 `json:"untilHeight,omitempty"`
	// SettleBlocks extends the derived deadline by that many block
	// intervals so refunds and backlog clearing quiesce before the
	// assertions run. A spec sets Until or SettleBlocks, not both.
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
// order (struct order), trailing newline. Parse(Encode(s)) round-trips,
// and byte-identical specs mean byte-identical runs.
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

// eventKinds maps spec kind names onto chaos kinds: a spec names a
// kind by its chaos.Kind.String().
var eventKinds = func() map[string]chaos.Kind {
	m := make(map[string]chaos.Kind)
	for _, k := range []chaos.Kind{chaos.PartitionLink, chaos.HealLink, chaos.LatencySpike,
		chaos.DropBurst, chaos.RelayerPause, chaos.RelayerResume} {
		m[k.String()] = k
	}
	return m
}()

// Validate checks everything checkable without deploying: topology
// preset, region spec, count and duration signs, route paths, chaos
// event targets against the per-edge relayer slots the deploy will
// produce, assertion names, and fault-space sanity. It is the one check
// of a run's shape: topo and chaos trust what it passed, and Compile
// re-runs it, so a spec that validates compiles and deploys.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	tp, err := topo.ParseSpec(s.Topology.Preset)
	if err != nil {
		return err
	}
	if _, err := parseGeo(s.Regions); err != nil {
		return err
	}
	// Zero selects a default, so a negative value would otherwise run on
	// that default without a word.
	for _, f := range [...]struct {
		name string
		v    int64
	}{
		{"deploy.validators", int64(s.Deploy.Validators)},
		{"deploy.relayersPerEdge", int64(s.Deploy.RelayersPerEdge)},
		{"deploy.clearIntervalBlocks", s.Deploy.ClearIntervalBlocks},
		{"deploy.parallelWorkers", int64(s.Deploy.ParallelWorkers)},
		{"workload.rate", int64(s.Workload.Rate)},
		{"workload.windows", int64(s.Workload.Windows)},
		{"workload.transfers", int64(s.Workload.Transfers)},
		{"workload.timeoutBlocks", s.Workload.TimeoutBlocks},
		{"untilHeight", s.UntilHeight},
		{"settleBlocks", int64(s.SettleBlocks)},
		{"until", int64(s.Until)},
		{"seed", s.Seed},
	} {
		if f.v < 0 {
			return fmt.Errorf("scenario: negative %s %d", f.name, f.v)
		}
	}
	if s.Until != 0 && s.SettleBlocks != 0 {
		return fmt.Errorf("scenario: until %v and settleBlocks %d are exclusive (settleBlocks extends only a derived deadline)", s.Until, s.SettleBlocks)
	}
	if w := s.Workload; w.Transfers != 0 && w.Rate != 0 {
		return fmt.Errorf("scenario: workload.transfers %d and rate %d are exclusive", w.Transfers, w.Rate)
	} else if w.Inject && (w.Transfers == 0 || w.Windows > 1) {
		return fmt.Errorf("scenario: workload.inject stages transfers into one block: it needs transfers and at most one window (transfers %d, windows %d)", w.Transfers, w.Windows)
	}
	for i, rt := range s.Workload.Routes {
		if len(rt.Path) < 2 {
			return fmt.Errorf("scenario: route %d path %v too short", i, rt.Path)
		}
		if rt.Transfers <= 0 {
			return fmt.Errorf("scenario: route %d has no transfers", i)
		}
		if rt.TimeoutBlocks < 0 {
			return fmt.Errorf("scenario: route %d has negative timeoutBlocks %d", i, rt.TimeoutBlocks)
		}
		if rt.TimeoutBlocks != 0 && rt.Forwarded && len(rt.Path) == 2 {
			return fmt.Errorf("scenario: route %d sets timeoutBlocks on a two-node forwarded path (no intermediate chain forwards it)", i)
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
		if !slices.Contains(DefaultAssertions(), name) { // the default set is every assertion
			return fmt.Errorf("scenario: unknown assertion %q (have %v)", name, DefaultAssertions())
		}
	}
	if s.Faults != nil {
		if err := s.Faults.validate(); err != nil {
			return err
		}
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
	n := topo.RelayerSlots(s.Deploy.RelayersPerEdge, s.Deploy.Standby)
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

func (f *FaultSpace) validate() error {
	for _, k := range f.Kinds {
		if _, ok := eventKinds[k]; !ok {
			return fmt.Errorf("scenario: fault space names unknown kind %q", k)
		}
		if k == "heal" || k == "relayer-resume" {
			return fmt.Errorf("scenario: fault space lists recovery kind %q (recoveries are generated, not drawn)", k)
		}
	}
	if f.MaxEvents < 0 {
		return fmt.Errorf("scenario: fault space maxEvents %d negative", f.MaxEvents)
	}
	if f.Horizon < 0 || f.MaxFaultWindow < 0 {
		return fmt.Errorf("scenario: fault space has a negative duration bound")
	}
	if f.Unhealed < 0 || f.Unhealed > 1 {
		return fmt.Errorf("scenario: fault space unhealed %.3f outside [0,1]", f.Unhealed)
	}
	return nil
}
