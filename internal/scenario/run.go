// Run executes a spec end to end: compile, run on the virtual clock,
// then check the spec's assertions over the quiescent deployment. The
// topo.Result is untouched by the assertion pass — it stays
// byte-identical to a plain topo.Scenario run — and the violations ride
// alongside in the Report.
package scenario

import (
	"fmt"
	"io"

	"ibcbench/internal/obs"
	"ibcbench/internal/topo"
)

// Report is one spec execution: the ordinary scenario result plus the
// assertion verdicts.
type Report struct {
	Spec   Spec         `json:"spec"`
	Result *topo.Result `json:"result"`
	// Assertions lists what was checked (the resolved default set when
	// the spec names none).
	Assertions []string    `json:"assertions"`
	Violations []Violation `json:"violations,omitempty"`
}

// Passed reports whether every assertion held.
func (r *Report) Passed() bool { return len(r.Violations) == 0 }

// Run compiles and executes the spec at the given seed (0 = the spec's
// own seed, defaulting to 1) and checks its assertions. o is the one
// attachment a spec cannot carry as data: the run records its spans and
// registry into it (nil = uninstrumented); the virtual result is the
// same either way, apart from Result.Metrics.
func Run(s Spec, seed int64, o *obs.Obs) (*Report, error) {
	sc, err := Compile(s)
	if err != nil {
		return nil, err
	}
	sc.Deploy.Obs = o
	if seed == 0 {
		seed = s.Seed
	}
	if seed == 0 {
		seed = 1
	}
	res, dep, err := sc.RunDeployed(seed)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	names := s.Assertions
	if len(names) == 0 {
		names = DefaultAssertions()
	}
	return &Report{
		Spec:       s,
		Result:     res,
		Assertions: names,
		Violations: Check(dep, names),
	}, nil
}

// Render writes the human-readable report: the scenario result followed
// by the assertion verdicts.
func (r *Report) Render(w io.Writer) {
	r.Result.Render(w)
	if r.Passed() {
		fmt.Fprintf(w, "assertions: %d checked, all held\n", len(r.Assertions))
		return
	}
	fmt.Fprintf(w, "assertions: %d violation(s)\n", len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  VIOLATION %s\n", v)
	}
}
