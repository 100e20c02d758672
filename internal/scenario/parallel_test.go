package scenario

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"ibcbench/internal/obs"
)

// Each test sets GOMAXPROCS, the width of ParallelMap's pool, and the
// deferred call restores it.

func TestParallelMapPreservesOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	out := ParallelMap(items, func(i int) int { return i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestParallelMapRunsAllItemsOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var calls atomic.Int64
	out := ParallelMap(make([]struct{}, 37), func(struct{}) int {
		return int(calls.Add(1))
	})
	if calls.Load() != 37 || len(out) != 37 {
		t.Fatalf("calls = %d, len = %d", calls.Load(), len(out))
	}
}

func TestParallelMapEmptyAndSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	if out := ParallelMap(nil, func(int) int { return 1 }); len(out) != 0 {
		t.Fatalf("empty input gave %v", out)
	}
	runtime.GOMAXPROCS(1)
	out := ParallelMap([]int{1, 2, 3}, func(i int) int { return i + 1 })
	if out[0] != 2 || out[2] != 4 {
		t.Fatalf("serial path broken: %v", out)
	}
}

// TestTracedRunsSideBySide runs traced, full-proof runs side by side on
// ParallelMap, each with its own obs.Obs, and compares each report and
// trace length with the same run done serially. No lock backs a
// deployment's state (see topo.Deployment), so under the race detector
// this shows that no two deployments share any: between them these runs
// drive netem overrides, the tracker, the tracer, RPC and the block
// store.
func TestTracedRunsSideBySide(t *testing.T) {
	type traced struct {
		report string
		events int
	}
	run := func(name string) traced {
		e, ok := Lookup(name)
		if !ok {
			t.Errorf("%s builtin missing", name)
			return traced{}
		}
		spec := e.Spec
		spec.Deploy.FullProofs = true
		o := obs.New()
		rep, err := Run(spec, 0, o)
		if err != nil {
			t.Error(err)
			return traced{}
		}
		var b strings.Builder
		rep.Render(&b)
		return traced{b.String(), o.Tracer.Len()}
	}
	names := []string{"pfmroute", "failover"}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(len(names)))
	side := ParallelMap(names, run)
	for i, name := range names {
		serial := run(name)
		if serial.events == 0 {
			t.Errorf("%s: the run recorded no trace events", name)
		}
		if side[i] != serial {
			t.Errorf("%s side by side: %d events, report\n%s\nserially: %d events, report\n%s",
				name, side[i].events, side[i].report, serial.events, serial.report)
		}
	}
}
