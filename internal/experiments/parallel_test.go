package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// atProcs returns fn's result with GOMAXPROCS, the width of the sweep
// pool, set to n: 1 runs the cells serially.
func atProcs[R any](n int, fn func() R) R {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	return fn()
}

// TestParallelSweepMatchesSerial is the acceptance check for the parallel
// seed runner: for a fixed seed grid, the worker pool must produce
// byte-identical results to serial execution.
func TestParallelSweepMatchesSerial(t *testing.T) {
	opt := Options{Seeds: 2, Rates: []int{40, 120}, Windows: 10}
	if testing.Short() {
		opt.Rates = []int{60}
		opt.Windows = 8
	}
	sweep := func() string {
		pts, err := RelayerSweep(opt, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", pts)
	}
	serial, parallel := atProcs(1, sweep), atProcs(4, sweep)
	if serial != parallel {
		t.Fatalf("relayer sweep diverged:\nserial:   %s\nparallel: %s", serial, parallel)
	}
	if testing.Short() {
		// The Tendermint identity check rides only in full mode; short
		// mode keeps the relayer identity plus the (fast) topology one.
		return
	}
	opt.Rates, opt.Windows = []int{500, 2000}, 5
	sweep = func() string {
		res, err := Tendermint(opt)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", res)
	}
	serial, parallel = atProcs(1, sweep), atProcs(4, sweep)
	if serial != parallel {
		t.Fatalf("tendermint sweep diverged:\nserial:   %s\nparallel: %s", serial, parallel)
	}
}

func TestTopologySweep(t *testing.T) {
	opt := Options{Seeds: 2, Windows: 3}
	res, err := TopologySweep(opt, "hub:2", 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput.Mean <= 0 {
		t.Fatalf("no aggregate throughput: %+v", res.Throughput)
	}
	if len(res.EdgeCompleted) != 2 {
		t.Fatalf("edges = %d, want 2", len(res.EdgeCompleted))
	}
	for i, d := range res.EdgeCompleted {
		if d.Mean <= 0 {
			t.Fatalf("edge %d completed nothing", i)
		}
	}
	// hub:2 has a spoke-to-spoke non-adjacent pair -> a demo route runs.
	if res.RoutesCompleted != opt.Seeds {
		t.Fatalf("routes completed = %d, want %d", res.RoutesCompleted, opt.Seeds)
	}
	var sb strings.Builder
	res.Render(&sb)
	for _, want := range []string{"topology hub:2", "aggregate TFPS", "sample run"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("render missing %q:\n%s", want, sb.String())
		}
	}

	if _, err := TopologySweep(opt, "ring:9", 4, false); err == nil {
		t.Fatal("bad spec accepted")
	}
}

func TestTopologySweepParallelMatchesSerial(t *testing.T) {
	run := func() string {
		res, err := TopologySweep(Options{Seeds: 2, Windows: 3}, "line:3", 3, false)
		if err != nil {
			t.Fatal(err)
		}
		// Render (not %+v): Sample is a pointer whose address differs.
		var sb strings.Builder
		res.Render(&sb)
		return sb.String()
	}
	if s, p := atProcs(1, run), atProcs(4, run); s != p {
		t.Fatalf("topology sweep diverged:\nserial:   %s\nparallel: %s", s, p)
	}
}
