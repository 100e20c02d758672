package topo

import (
	"testing"
	"time"

	"ibcbench/internal/metrics"
)

// TestHubSharedScanSingleDecodePass pins the tentpole property of the
// shared event index: a hub chain with two links and two relayers per
// edge has four co-located relayer endpoints, yet every committed block
// is decoded exactly once, and each link's packets still reach only its
// own channel's relayers.
func TestHubSharedScanSingleDecodePass(t *testing.T) {
	d, err := Deploy(Hub(2), DeployConfig{Seed: 5, RelayersPerEdge: 2})
	if err != nil {
		t.Fatal(err)
	}
	d.Links[0].Forward().RunConstantRate(5, 3)
	d.Links[1].Forward().RunConstantRate(5, 3)
	d.Start()
	if err := d.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	for i, c := range d.Chains {
		h, scans := uint64(c.Store.Height()), c.Events.ScanCount()
		if h == 0 {
			t.Fatalf("chain %d produced no blocks", i)
		}
		if scans != h {
			t.Fatalf("chain %s: %d decode passes over %d blocks (want exactly one per block)",
				c.ID, scans, h)
		}
	}
	// Per-channel delivery stayed correct: each edge completed all of its
	// own transfers, none of its neighbour's.
	for _, l := range d.Links {
		counts := l.Tracker.CompletionCounts()
		want := l.Forward().Stats().Requested
		if want == 0 || counts[metrics.StatusCompleted] != want {
			t.Fatalf("edge %d: completion %v, want %d completed", l.Index, counts, want)
		}
		if got := trackedPackets(l.Tracker); got != want {
			t.Fatalf("edge %d tracked %d packets, want %d (cross-channel leakage?)",
				l.Index, got, want)
		}
	}
}
