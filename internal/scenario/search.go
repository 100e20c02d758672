// Chaos search: seeded randomized fault-timeline generation over a
// spec's declared fault space, hunting assertion violations. Every
// candidate is a full deterministic run, candidates fan out across the
// ParallelMap pool, and the FIRST violating candidate by generation index — not
// completion order — wins, so a search with the same spec and seed
// always returns the same counterexample. A found violation is shrunk
// (shrink.go) to a minimal reproducing timeline and emitted as a
// committable spec.
package scenario

import (
	"fmt"
	"io"
	"time"

	"ibcbench/internal/sim"
	"ibcbench/internal/topo"
)

// SearchOptions bounds one chaos search.
type SearchOptions struct {
	// Budget is the number of candidate timelines generated and run
	// (0 = 16).
	Budget int
	// Seed drives the timeline generator — independent of the spec's
	// run seed, which every candidate executes under (0 = 1).
	Seed int64
}

// Counterexample is one found violation, shrunk.
type Counterexample struct {
	// Candidate is the violating timeline's generation index.
	Candidate int `json:"candidate"`
	// Events is the original violating timeline (base spec chaos plus
	// generated faults).
	Events []EventSpec `json:"events"`
	// Violations are the verdicts of the original violating run.
	Violations []Violation `json:"violations"`
	// Minimal is the shrunk committable spec: the smallest event subset
	// that still violates, with the fault space stripped and the run
	// seed pinned — `ibcbench run -scenario <file>` replays it exactly.
	Minimal Spec `json:"minimal"`
	// MinimalViolations are the verdicts of the minimal spec's run.
	MinimalViolations []Violation `json:"minimalViolations"`
	// ShrinkRuns counts the runs the minimizer spent.
	ShrinkRuns int `json:"shrinkRuns"`
}

// SearchResult summarizes a search.
type SearchResult struct {
	Spec     string `json:"spec"`
	Seed     int64  `json:"seed"`
	Examined int    `json:"examined"`
	// Counterexample is nil when every candidate held.
	Counterexample *Counterexample `json:"counterexample,omitempty"`
}

// Generated fault magnitudes: a latency spike adds at most
// maxExtraLatency, a drop burst loses at most maxExtraDrop of an edge's
// messages.
const (
	maxExtraLatency = 400 * time.Millisecond
	maxExtraDrop    = 0.5
)

// resolveFaults returns the spec's fault space with its defaults
// filled in; the spec must declare one to be searchable.
func resolveFaults(s Spec) (FaultSpace, error) {
	if s.Faults == nil {
		return FaultSpace{}, fmt.Errorf("scenario %s: no fault space declared — add a \"faults\" block to search it", s.Name)
	}
	f := *s.Faults
	if len(f.Kinds) == 0 {
		f.Kinds = []string{"partition", "latency-spike", "drop-burst", "relayer-pause"}
	}
	if f.MaxEvents <= 0 {
		f.MaxEvents = 4
	}
	if f.Horizon <= 0 {
		f.Horizon = Duration(60 * time.Second)
	}
	if f.MaxFaultWindow <= 0 {
		f.MaxFaultWindow = Duration(30 * time.Second)
	}
	return f, nil
}

// generateTimeline draws one candidate fault timeline. All times are
// millisecond-quantized so emitted specs stay readable, and recovery
// events (heal, spike/burst clear, resume) pair each fault unless the
// unhealed probability leaves it open. Every edge of the topology is a
// target.
func generateTimeline(rng *sim.RNG, s Spec, fs FaultSpace) []EventSpec {
	tp, _ := topo.ParseSpec(s.Topology.Preset)
	slots := topo.RelayerSlots(s.Deploy.RelayersPerEdge, s.Deploy.Standby)
	var events []EventSpec
	n := 1 + rng.Intn(fs.MaxEvents)
	for i := 0; i < n; i++ {
		kind := fs.Kinds[rng.Intn(len(fs.Kinds))]
		edge := rng.Intn(len(tp.Edges))
		at := time.Duration(1+rng.Int63n(int64(fs.Horizon.D()/time.Millisecond))) * time.Millisecond
		window := time.Duration(1+rng.Int63n(int64(fs.MaxFaultWindow.D()/time.Millisecond))) * time.Millisecond
		recovers := rng.Float64() >= fs.Unhealed
		switch kind {
		case "partition":
			relayer := -1
			if rng.Intn(2) == 0 {
				relayer = rng.Intn(slots)
			}
			events = append(events, EventSpec{At: Duration(at), Kind: "partition", Edge: edge, Relayer: intp(relayer)})
			if recovers {
				events = append(events, EventSpec{At: Duration(at + window), Kind: "heal", Edge: edge, Relayer: intp(relayer)})
			}
		case "latency-spike":
			extra := time.Duration(1+rng.Int63n(int64(maxExtraLatency/time.Millisecond))) * time.Millisecond
			events = append(events, EventSpec{At: Duration(at), Kind: "latency-spike", Edge: edge, ExtraLatency: Duration(extra)})
			if recovers {
				events = append(events, EventSpec{At: Duration(at + window), Kind: "latency-spike", Edge: edge})
			}
		case "drop-burst":
			// Quantized to 1% steps so emitted specs diff cleanly.
			drop := float64(1+rng.Intn(int(maxExtraDrop*100))) / 100
			events = append(events, EventSpec{At: Duration(at), Kind: "drop-burst", Edge: edge, ExtraDrop: drop})
			if recovers {
				events = append(events, EventSpec{At: Duration(at + window), Kind: "drop-burst", Edge: edge})
			}
		case "relayer-pause":
			relayer := rng.Intn(slots)
			events = append(events, EventSpec{At: Duration(at), Kind: "relayer-pause", Edge: edge, Relayer: intp(relayer)})
			if recovers {
				events = append(events, EventSpec{At: Duration(at + window), Kind: "relayer-resume", Edge: edge, Relayer: intp(relayer)})
			}
		}
	}
	return events
}

// runWith executes the spec with a replacement chaos timeline and
// reports the assertion verdicts.
func runWith(s Spec, events []EventSpec) ([]Violation, error) {
	s2 := s
	s2.Chaos = events
	s2.Faults = nil
	rep, err := Run(s2, 0, nil)
	if err != nil {
		return nil, err
	}
	return rep.Violations, nil
}

// Search hunts the spec's fault space for assertion violations. Same
// spec + same options produce byte-identical results (the
// counterexample spec included): candidate timelines are generated
// up-front from one seeded RNG, runs are deterministic, and the winner
// is the first violating candidate by index regardless of which
// parallel worker finished first.
func Search(s Spec, opt SearchOptions) (*SearchResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	fs, err := resolveFaults(s)
	if err != nil {
		return nil, err
	}
	budget := opt.Budget
	if budget <= 0 {
		budget = 16
	}
	genSeed := opt.Seed
	if genSeed == 0 {
		genSeed = 1
	}
	rng := sim.NewRNG(genSeed)
	candidates := make([][]EventSpec, budget)
	for i := range candidates {
		candidates[i] = append(append([]EventSpec(nil), s.Chaos...), generateTimeline(rng, s, fs)...)
	}
	type verdict struct {
		violations []Violation
		err        error
	}
	verdicts := ParallelMap(candidates, func(events []EventSpec) verdict {
		v, err := runWith(s, events)
		return verdict{violations: v, err: err}
	})
	out := &SearchResult{Spec: s.Name, Seed: genSeed, Examined: budget}
	for i, v := range verdicts {
		if v.err != nil {
			return nil, fmt.Errorf("scenario %s: candidate %d: %w", s.Name, i, v.err)
		}
		if len(v.violations) == 0 {
			continue
		}
		ce := &Counterexample{Candidate: i, Events: candidates[i], Violations: v.violations}
		minEvents, minViolations, runs, serr := shrink(s, candidates[i], v.violations)
		if serr != nil {
			return nil, fmt.Errorf("scenario %s: shrinking candidate %d: %w", s.Name, i, serr)
		}
		ce.ShrinkRuns = runs
		ce.MinimalViolations = minViolations
		ce.Minimal = minimalSpec(s, minEvents)
		out.Counterexample = ce
		break
	}
	return out, nil
}

// minimalSpec freezes a shrunk timeline as a standalone regression
// spec: fault space stripped, run seed pinned, name suffixed.
func minimalSpec(s Spec, events []EventSpec) Spec {
	min := s
	min.Name = s.Name + "-counterexample"
	min.Chaos = events
	min.Faults = nil
	if min.Seed == 0 {
		min.Seed = 1
	}
	if len(min.Assertions) == 0 {
		min.Assertions = DefaultAssertions()
	}
	return min
}

// Render writes the human-readable search summary.
func (r *SearchResult) Render(w io.Writer) {
	if r.Counterexample == nil {
		fmt.Fprintf(w, "search %s (seed %d): %d candidate timeline(s), no violation found\n", r.Spec, r.Seed, r.Examined)
		return
	}
	ce := r.Counterexample
	fmt.Fprintf(w, "search %s (seed %d): candidate %d of %d violated\n", r.Spec, r.Seed, ce.Candidate+1, r.Examined)
	for _, v := range ce.Violations {
		fmt.Fprintf(w, "  VIOLATION %s\n", v)
	}
	fmt.Fprintf(w, "shrunk %d event(s) -> %d in %d run(s); minimal timeline:\n",
		len(ce.Events), len(ce.Minimal.Chaos), ce.ShrinkRuns)
	for _, ev := range ce.Minimal.Chaos {
		fmt.Fprintf(w, "  at %-8v %s edge %d", ev.At, ev.Kind, ev.Edge)
		if ev.Relayer != nil {
			if *ev.Relayer < 0 {
				fmt.Fprintf(w, " (whole link)")
			} else {
				fmt.Fprintf(w, " (relayer %d)", *ev.Relayer)
			}
		}
		if ev.ExtraLatency > 0 {
			fmt.Fprintf(w, " +%v", ev.ExtraLatency)
		}
		if ev.ExtraDrop > 0 {
			fmt.Fprintf(w, " %.0f%%", 100*ev.ExtraDrop)
		}
		fmt.Fprintln(w)
	}
}
