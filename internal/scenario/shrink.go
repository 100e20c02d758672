// Shrinking: greedy deterministic minimization of a violating fault
// timeline. The algorithm is ddmin-flavoured but intentionally simple —
// try removing each event in index order, keep any removal after which
// some assertion still fails, loop to fixpoint — because every probe is
// a full simulation run; the budget caps total runs. Removals are
// always safe to try: heals, spike clears and resumes are balance-only
// no-ops when their fault was removed first, so any event subset is a
// valid timeline.
package scenario

// shrinkBudget caps the removal runs one shrink spends.
const shrinkBudget = 64

// shrink minimizes events against the spec, returning the minimal
// timeline, the violations of its final verifying run, and the number
// of runs spent. The input timeline is known-violating, so shrink never
// returns an empty non-violating result: a removal is only kept when
// the violation persists.
func shrink(s Spec, events []EventSpec) ([]EventSpec, []Violation, int, error) {
	cur := append([]EventSpec(nil), events...)
	// The caller observed the violation on the full timeline; re-derive
	// its verdicts only when we never manage a successful removal.
	var curViolations []Violation
	runs := 0
	improved := true
	for improved && runs < shrinkBudget {
		improved = false
		for i := 0; i < len(cur) && runs < shrinkBudget; i++ {
			trial := make([]EventSpec, 0, len(cur)-1)
			trial = append(trial, cur[:i]...)
			trial = append(trial, cur[i+1:]...)
			v, err := runWith(s, trial)
			runs++
			if err != nil {
				return nil, nil, runs, err
			}
			if len(v) == 0 {
				continue // event i is load-bearing; keep it
			}
			cur, curViolations = trial, v
			improved = true
			i-- // the next event shifted into slot i
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
