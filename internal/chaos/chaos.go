// Package chaos is the deterministic fault-injection subsystem: a
// timeline of typed events (a []Event) applied at virtual times on the
// shared sim.Scheduler clock, driven against a Target (the deployed
// topology).
//
// Faults are declarative — PartitionLink, HealLink, LatencySpike,
// DropBurst, RelayerPause, RelayerResume — so a scenario's chaos
// schedule is part of its configuration: the same seed and timeline
// reproduce byte-identical results, and every applied fault is appended
// to a log folded into the scenario result. A timeline is checked once,
// by the scenario spec that declares it; Inject trusts it.
package chaos

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"ibcbench/internal/sim"
)

// Kind enumerates fault event types.
type Kind int

// Fault kinds. Link events target a topology edge; relayer events target
// one relayer ordinal of an edge.
const (
	// PartitionLink severs an edge: with Relayer < 0 the whole
	// inter-chain link (every relayer of the edge loses both chains),
	// with Relayer >= 0 only that relayer's host drops off the network.
	PartitionLink Kind = iota + 1
	// HealLink reverses a PartitionLink with the same target.
	HealLink
	// LatencySpike adds ExtraLatency to every cross path of the edge
	// until cleared by a zero-magnitude spike. Spikes and bursts on one
	// edge compose independently.
	LatencySpike
	// DropBurst applies ExtraDrop loss probability to every cross path
	// of the edge until cleared by a zero-magnitude burst.
	DropBurst
	// RelayerPause stops one relayer process (crash injection).
	RelayerPause
	// RelayerResume restarts a paused relayer.
	RelayerResume
)

// String names the kind for logs and rendered results.
func (k Kind) String() string {
	switch k {
	case PartitionLink:
		return "partition"
	case HealLink:
		return "heal"
	case LatencySpike:
		return "latency-spike"
	case DropBurst:
		return "drop-burst"
	case RelayerPause:
		return "relayer-pause"
	case RelayerResume:
		return "relayer-resume"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// MarshalText renders the kind name so persisted results stay readable.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Event is one scheduled fault.
type Event struct {
	// At is the virtual time the fault applies.
	At time.Duration
	// Kind selects the fault type.
	Kind Kind
	// Edge is the target edge index of the topology.
	Edge int
	// Relayer targets one relayer ordinal of the edge (the standby is
	// the last ordinal). For PartitionLink/HealLink a negative value
	// severs the whole link; note the zero value targets relayer 0's
	// host, not the link.
	Relayer int
	// ExtraLatency is the LatencySpike magnitude (0 clears the spike).
	ExtraLatency time.Duration
	// ExtraDrop is the DropBurst loss probability (0 clears the burst).
	ExtraDrop float64
}

// Target is the deployment surface a timeline drives. Implemented by
// topo.Deployment.
type Target interface {
	// PartitionEdge severs edge paths (relayer < 0: the whole link;
	// otherwise that relayer's host only). HealEdge reverses it;
	// overlapping partitions compose, each heal undoing one fault.
	PartitionEdge(edge, relayer int)
	HealEdge(edge, relayer int)
	// SetEdgeExtraLatency / SetEdgeExtraDrop apply one overlay component
	// to the edge's cross paths (0 clears that component only, so a
	// spike and a burst on one edge coexist).
	SetEdgeExtraLatency(edge int, extra time.Duration)
	SetEdgeExtraDrop(edge int, extra float64)
	// PauseRelayer / ResumeRelayer stop and restart one relayer process.
	PauseRelayer(edge, relayer int)
	ResumeRelayer(edge, relayer int)
}

// Applied is one log entry: the event plus a rendered description.
type Applied struct {
	At    time.Duration
	Event Event
	Desc  string
}

// Inject schedules every event against target, and each one, as it
// applies, appends its entry to *log, so *log holds the faults applied
// so far in application order. Events are scheduled in (At, index)
// order before the simulation starts, so runs are deterministic. The
// timeline is trusted: scenario.Spec.Validate checked its times, edges,
// relayer ordinals and magnitudes against the deployment it targets.
func Inject(sched *sim.Scheduler, target Target, events []Event, log *[]Applied) {
	events = slices.Clone(events)
	slices.SortStableFunc(events, func(a, b Event) int { return cmp.Compare(a.At, b.At) })
	for _, ev := range events {
		sched.At(ev.At, func() { *log = append(*log, apply(target, ev)) })
	}
}

func apply(target Target, ev Event) Applied {
	var desc string
	switch ev.Kind {
	case PartitionLink:
		target.PartitionEdge(ev.Edge, ev.Relayer)
		desc = fmt.Sprintf("partition edge %d %s", ev.Edge, relayerDesc(ev.Relayer))
	case HealLink:
		target.HealEdge(ev.Edge, ev.Relayer)
		desc = fmt.Sprintf("heal edge %d %s", ev.Edge, relayerDesc(ev.Relayer))
	case LatencySpike:
		target.SetEdgeExtraLatency(ev.Edge, ev.ExtraLatency)
		desc = fmt.Sprintf("latency spike +%v on edge %d", ev.ExtraLatency, ev.Edge)
	case DropBurst:
		target.SetEdgeExtraDrop(ev.Edge, ev.ExtraDrop)
		desc = fmt.Sprintf("drop burst %.0f%% on edge %d", 100*ev.ExtraDrop, ev.Edge)
	case RelayerPause:
		target.PauseRelayer(ev.Edge, ev.Relayer)
		desc = fmt.Sprintf("pause relayer %d on edge %d", ev.Relayer, ev.Edge)
	case RelayerResume:
		target.ResumeRelayer(ev.Edge, ev.Relayer)
		desc = fmt.Sprintf("resume relayer %d on edge %d", ev.Relayer, ev.Edge)
	}
	return Applied{At: ev.At, Event: ev, Desc: desc}
}

func relayerDesc(r int) string {
	if r < 0 {
		return "(whole link)"
	}
	return fmt.Sprintf("(relayer %d host)", r)
}
