// Compile lowers a declarative spec onto a runnable topo.Scenario. The
// workload passes through as it is (the spec's block is topo.Workload);
// Compile resolves only what the file spells differently from the run:
// the topology and region presets (a topo.Topology and a geo.Model), the
// chaos events' kind names and default relayers (chaos.Event), and
// settle blocks as a duration. The lowering adds no behaviour of its
// own — a spec equivalent to a hand-built topo.Scenario produces a
// byte-identical same-seed topo.Result (pinned by
// experiments.TestSpecBuiltMatchesHandBuilt).
package scenario

import (
	"fmt"
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
	tp, err := topo.ParseSpec(s.Topology.Preset)
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
		},
		Workload:     s.Workload,
		RecordCurves: s.RecordCurves,
		Until:        s.Until.D(),
		UntilHeight:  s.UntilHeight,
		ExtraSettle:  time.Duration(s.SettleBlocks) * simconf.MinBlockInterval,
	}
	for _, ev := range s.Chaos {
		sc.Chaos = append(sc.Chaos, compileEvent(ev))
	}
	return sc, nil
}

// compileEvent lowers one timeline entry. The spec's optional relayer
// resolves to the chaos conventions: whole link (-1) for partition/heal,
// relayer 0 for pause/resume.
func compileEvent(ev EventSpec) chaos.Event {
	out := chaos.Event{
		At:           ev.At.D(),
		Kind:         eventKinds[ev.Kind],
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

func parseGeo(spec string) (*geo.Model, error) {
	model, err := geo.ParseSpec(spec)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return model, nil
}
