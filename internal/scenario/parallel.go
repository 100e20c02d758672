package scenario

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ParallelMap runs fn over items on a bounded worker pool and returns the
// results in input order. Every simulation run is deterministic and fully
// self-contained (own scheduler, RNG and chains), so a parallel sweep
// produces byte-identical results to serial execution — the pool only
// buys wall-clock speedup across the Seeds x configs grid.
//
// workers <= 0 selects GOMAXPROCS.
func ParallelMap[T, R any](items []T, workers int, fn func(T) R) []R {
	out := make([]R, len(items))
	if len(items) == 0 {
		return out
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(items) {
		workers = len(items)
	}
	if workers == 1 {
		for i := range items {
			out[i] = fn(items[i])
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				out[i] = fn(items[i])
			}
		}()
	}
	wg.Wait()
	return out
}
