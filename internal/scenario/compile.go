// Compile lowers a declarative spec onto the existing run APIs:
// topo.Scenario + topo.DeployConfig + chaos.Timeline + geo.Model. The
// lowering adds no behaviour of its own — a spec equivalent to a
// hand-built topo.Scenario produces a byte-identical same-seed
// topo.Result (pinned by experiments.TestSpecBuiltMatchesHandBuilt).
package scenario

import (
	"fmt"
	"strconv"
	"time"

	"ibcbench/internal/chaos"
	"ibcbench/internal/geo"
	"ibcbench/internal/simconf"
	"ibcbench/internal/topo"
)

// Compile validates the spec and lowers it to a runnable topo.Scenario.
func Compile(s Spec) (topo.Scenario, error) {
	if err := s.Validate(); err != nil {
		return topo.Scenario{}, err
	}
	tp, err := s.topology()
	if err != nil {
		return topo.Scenario{}, err
	}
	model, err := parseGeo(s.Regions)
	if err != nil {
		return topo.Scenario{}, err
	}
	sc := topo.Scenario{
		Name:     s.Name,
		Topology: tp,
		Deploy: topo.DeployConfig{
			Geo:                 model,
			Validators:          s.Deploy.Validators,
			FullProofs:          s.Deploy.FullProofs,
			RelayersPerEdge:     s.Deploy.RelayersPerEdge,
			ClearIntervalBlocks: s.Deploy.ClearIntervalBlocks,
			Standby:             s.Deploy.Standby,
			ParallelWorkers:     s.Deploy.ParallelWorkers,
		},
		Windows:      s.Workload.Windows,
		RecordCurves: s.RecordCurves,
		Until:        s.Until.D(),
		ExtraSettle:  time.Duration(s.SettleBlocks) * simconf.MinBlockInterval,
	}
	rates := make(map[int]int, len(tp.Edges))
	if s.Workload.Rate > 0 {
		for i := range tp.Edges {
			rates[i] = s.Workload.Rate
		}
	}
	for _, k := range sortedEdgeKeys(s.Workload.EdgeRates) {
		i, _ := strconv.Atoi(k)
		if r := s.Workload.EdgeRates[k]; r > 0 {
			rates[i] = r
		} else {
			delete(rates, i)
		}
	}
	if len(rates) > 0 {
		sc.EdgeRates = rates
	}
	for _, rt := range s.Workload.Routes {
		sc.Routes = append(sc.Routes, topo.Route{
			Path:          append([]int(nil), rt.Path...),
			Transfers:     rt.Transfers,
			Forwarded:     rt.Forwarded,
			TimeoutBlocks: rt.TimeoutBlocks,
		})
	}
	for _, ev := range s.Chaos {
		sc.Chaos.Events = append(sc.Chaos.Events, compileEvent(ev))
	}
	return sc, nil
}

// compileEvent lowers one timeline entry. The spec's optional relayer
// resolves to the chaos conventions: whole link (-1) for partition/heal,
// relayer 0 for pause/resume.
func compileEvent(ev EventSpec) chaos.Event {
	out := chaos.Event{
		At:           ev.At.D(),
		Kind:         chaos.Kind(eventKinds[ev.Kind]),
		Edge:         ev.Edge,
		ExtraLatency: ev.ExtraLatency.D(),
		ExtraDrop:    ev.ExtraDrop,
	}
	switch ev.Kind {
	case "partition", "heal":
		out.Relayer = -1
	}
	if ev.Relayer != nil {
		out.Relayer = *ev.Relayer
	}
	return out
}

// topology resolves the spec's graph: preset string or explicit lists.
func (s Spec) topology() (topo.Topology, error) {
	t := s.Topology
	switch {
	case t.Preset != "" && (len(t.Chains) > 0 || len(t.Edges) > 0):
		return topo.Topology{}, fmt.Errorf("scenario: topology sets both preset and explicit chains/edges")
	case t.Preset != "":
		return topo.ParseSpec(t.Preset)
	default:
		out := topo.Topology{Name: s.Name}
		for _, c := range t.Chains {
			out.Chains = append(out.Chains, topo.ChainSpec{
				ID: c.ID, Validators: c.Validators, Region: geo.Region(c.Region),
			})
		}
		for _, e := range t.Edges {
			out.Edges = append(out.Edges, topo.EdgeSpec{
				A: e.A, B: e.B, Relayers: e.Relayers, Standby: e.Standby,
			})
		}
		if err := out.Validate(); err != nil {
			return topo.Topology{}, fmt.Errorf("scenario: %w", err)
		}
		return out, nil
	}
}

func parseGeo(spec string) (*geo.Model, error) {
	model, err := geo.ParseSpec(spec)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return model, nil
}
