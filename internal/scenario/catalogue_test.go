package scenario_test

import (
	"slices"
	"strings"
	"testing"

	"ibcbench/internal/experiments"
	"ibcbench/internal/metrics"
	"ibcbench/internal/scenario"
)

// The catalogue's tests. Its table lives in internal/experiments; these
// read it from here, beside Run, since a built-in is a spec run through
// Run.

// sharedNames are the names a figure and a built-in both carry. The
// failover figure's selector and result-document key and the failover
// built-in's spec name each reach committed outputs (the 3wan VIRT gate,
// sweep documents, search replays), and `sweep` reads only figures
// while `run` and `search` read only built-ins.
var sharedNames = []string{"failover"}

// TestRegistryLint is the CI lint gate in miniature: every built-in spec
// of the catalogue validates, compiles, and encodes canonically.
func TestRegistryLint(t *testing.T) {
	linted := 0
	for _, e := range experiments.Catalogue() {
		if e.Spec == nil {
			continue
		}
		linted++
		if err := e.Lint(); err != nil {
			t.Errorf("lint %s: %v", e.Name, err)
		}
	}
	if linted < 5 {
		t.Fatalf("expected the built-in library, linted %d specs", linted)
	}
}

// TestBuiltinNamesUnique: a name is what `run -name`, `search -name` and
// `sweep -experiment` look up, so the names are unique across figures
// and built-ins, a built-in is named as its spec is, and no built-in
// takes a figure's selector (sharedNames apart).
func TestBuiltinNamesUnique(t *testing.T) {
	cat := experiments.Catalogue()
	seen := map[string]bool{}
	for _, e := range cat {
		if seen[e.Name] && !slices.Contains(sharedNames, e.Name) {
			t.Errorf("catalogue name %q appears twice", e.Name)
		}
		seen[e.Name] = true
		if e.Spec != nil && e.Spec.Name != e.Name {
			t.Errorf("built-in %q runs a spec named %q", e.Name, e.Spec.Name)
		}
	}
	selectors := experiments.Selectors()
	for _, e := range cat {
		if e.Spec != nil && slices.Contains(selectors, e.Name) && !slices.Contains(sharedNames, e.Name) {
			t.Errorf("built-in %q shares its name with a sweep selector", e.Name)
		}
	}
	for _, name := range sharedNames {
		if _, err := experiments.Builtin(name); err != nil || !slices.Contains(selectors, name) {
			t.Errorf("shared name %q: want a built-in (got %v) and a selector", name, err)
		}
	}
}

// TestShortBuiltinsHoldAssertions runs every Short built-in end to end:
// the run succeeds, traffic completes, and all default assertions hold.
// This is what `ibcbench suite -short` executes. Each also runs with
// real merkle proofs at seeds 1 and 2: the keeper checks every
// membership proof it accepts against the counterparty's state and
// panics on a disagreement, so such a run is also a differential test
// of the proof path against that state.
func TestShortBuiltinsHoldAssertions(t *testing.T) {
	ran := 0
	for _, e := range experiments.Catalogue() {
		if !e.Short {
			continue
		}
		ran++
		full := *e.Spec
		full.Deploy.FullProofs = true
		for _, c := range []struct {
			name string
			spec scenario.Spec
			seed int64
		}{{e.Name, *e.Spec, 0}, {e.Name + "/fullProofs/seed-1", full, 1}, {e.Name + "/fullProofs/seed-2", full, 2}} {
			t.Run(c.name, func(t *testing.T) {
				rep, err := scenario.Run(c.spec, c.seed, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Passed() {
					for _, v := range rep.Violations {
						t.Errorf("violation: %s", v)
					}
				}
				total := rep.Result.Total[metrics.StatusCompleted] + rep.Result.RoutesCompleted
				if total == 0 {
					t.Error("built-in completed no traffic")
				}
			})
		}
	}
	if ran == 0 {
		t.Fatal("no Short built-ins in the catalogue")
	}
}

// TestBuiltinDescriptions: every catalogue entry, figure or built-in,
// has the one-line description `ibcbench help` prints.
func TestBuiltinDescriptions(t *testing.T) {
	for _, e := range experiments.Catalogue() {
		if strings.TrimSpace(e.Desc) == "" {
			t.Errorf("catalogue entry %s has no description", e.Name)
		}
	}
}
