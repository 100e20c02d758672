// Shrinking: greedy deterministic minimization of a violating fault
// timeline. The algorithm is ddmin-flavoured but intentionally simple —
// try removing each fault in turn, keep a removal after which the same
// assertion still fails on the same chain as on the original timeline,
// loop to fixpoint — because every probe is a full simulation run; the
// budget caps total runs. A fault is removed together with the recovery
// that ends it (heal, spike clear, burst clear, resume), and a recovery
// is never removed alone: dropping only the heal would turn a healed
// fault into an open one, a different timeline whose verdicts (stuck
// packets, say) the original never had.
package scenario

import (
	"slices"
	"sort"
)

// shrinkBudget caps the removal runs one shrink spends.
const shrinkBudget = 64

// shrink minimizes events against the spec, returning the minimal
// timeline, the violations of its final verifying run, and the number
// of runs spent. found are the original timeline's violations: a removal
// is only kept when one of their assertions still fails on its chain.
func shrink(s Spec, events []EventSpec, found []Violation) ([]EventSpec, []Violation, int, error) {
	cur := append([]EventSpec(nil), events...)
	// The caller observed the violation on the full timeline; re-derive
	// its verdicts only when we never manage a successful removal.
	var curViolations []Violation
	runs := 0
	improved := true
	for improved && runs < shrinkBudget {
		improved = false
		for u := 0; runs < shrinkBudget; u++ {
			units := faultUnits(cur)
			if u >= len(units) {
				break
			}
			unit := units[u]
			trial := make([]EventSpec, 0, len(cur)-len(unit))
			for i, ev := range cur {
				if !slices.Contains(unit, i) {
					trial = append(trial, ev)
				}
			}
			v, err := runWith(s, trial)
			runs++
			if err != nil {
				return nil, nil, runs, err
			}
			if !stillFails(found, v) {
				continue // this fault is load-bearing; keep it
			}
			cur, curViolations = trial, v
			improved = true
			u-- // the next fault shifted into slot u
		}
	}
	if curViolations == nil {
		// No removal ever succeeded — verify the original once so the
		// reported minimal verdicts come from the emitted timeline.
		v, err := runWith(s, cur)
		runs++
		if err != nil {
			return nil, nil, runs, err
		}
		curViolations = v
	}
	return cur, curViolations, runs, nil
}

// stillFails reports whether v holds a verdict of an assertion on a
// chain that found has one for.
func stillFails(found, v []Violation) bool {
	for _, a := range v {
		for _, b := range found {
			if a.Assertion == b.Assertion && a.Chain == b.Chain {
				return true
			}
		}
	}
	return false
}

// faultTarget is what a fault acts on, which its recovery names again.
type faultTarget struct {
	kind          string // the fault's kind
	edge, relayer int
}

// faultUnits groups a timeline's indices into removable units, in the
// time order of their faults: each fault with the recovery that ends it,
// if any, the first later recovery of its target that no earlier fault
// took. A recovery with no fault open before it belongs to no unit.
func faultUnits(events []EventSpec) [][]int {
	order := make([]int, len(events))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return events[order[a]].At < events[order[b]].At })
	var units [][]int
	open := map[faultTarget][]int{} // target -> units still open, oldest first
	for _, i := range order {
		ev := events[i]
		target, fault := faultTarget{ev.Kind, ev.Edge, -2}, true
		if ev.Relayer != nil {
			target.relayer = *ev.Relayer
		}
		switch ev.Kind {
		case "heal":
			target.kind, fault = "partition", false
		case "relayer-resume":
			target.kind, fault = "relayer-pause", false
		case "latency-spike":
			fault = ev.ExtraLatency > 0
		case "drop-burst":
			fault = ev.ExtraDrop > 0
		}
		switch q := open[target]; {
		case fault:
			open[target] = append(q, len(units))
			units = append(units, []int{i})
		case len(q) > 0:
			units[q[0]] = append(units[q[0]], i)
			open[target] = q[1:]
		}
	}
	return units
}
