package scenario

import (
	"os"
	"path/filepath"
	"testing"

	"ibcbench/internal/topo"
)

// abandoned sums the messages every relayer of a deployment gave up
// while they could still land.
func abandoned(d *topo.Deployment) uint64 {
	var n uint64
	for _, l := range d.Links {
		for _, r := range l.Relayers {
			n += r.Stats().Abandoned
		}
		if l.Standby != nil {
			n += l.Standby.Stats().Abandoned
		}
	}
	return n
}

// runDeployed compiles and runs a spec at a seed.
func runDeployed(t *testing.T, spec Spec, seed int64) *topo.Deployment {
	t.Helper()
	sc, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, d, err := sc.RunDeployed(seed)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestNoMessageAbandonedWithoutFaults: without chaos no relayer gives up
// a message that could still be delivered, on any built-in. With a
// relayer pause (line3-pfm-chaos) the count bites: the paused relayer
// releases the batches it had in flight while their packets were
// deliverable, and its clearing pass rebuilds them.
func TestNoMessageAbandonedWithoutFaults(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, spec := range []Spec{quickstartSpec(), hubSpec(), meshSpec(), pfmrouteSpec(), roundtripSpec(), timeoutstormSpec(), timeoutproofsSpec()} {
		for _, seed := range seeds {
			if n := abandoned(runDeployed(t, spec, seed)); n != 0 {
				t.Errorf("%s at seed %d: %d messages abandoned while deliverable", spec.Name, seed, n)
			}
		}
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "bench", "workloads", "line3-pfm-chaos.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if n := abandoned(runDeployed(t, spec, 11)); n == 0 {
		t.Error("line3-pfm-chaos at seed 11: no message abandoned across its relayer pause")
	}
}
