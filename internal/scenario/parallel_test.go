package scenario

import (
	"runtime"
	"sync/atomic"
	"testing"
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
