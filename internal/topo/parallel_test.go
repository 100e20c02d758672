package topo

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"ibcbench/internal/chaos"
	"ibcbench/internal/obs"
)

// runFingerprint executes the scenario with the given worker count and
// returns the marshalled Result plus the Chrome trace document — the two
// byte streams the parallel runner must reproduce exactly.
func runFingerprint(t *testing.T, s Scenario, seed int64, workers int) (result, trace []byte) {
	t.Helper()
	s.Deploy.ParallelWorkers = workers
	s.Deploy.Obs = obs.New()
	res, err := s.Run(seed)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	result, err = json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Deploy.Obs.Tracer.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	return result, buf.Bytes()
}

// assertEquivalent pins serial vs parallel byte identity for a scenario
// across worker counts and seeds.
func assertEquivalent(t *testing.T, s Scenario, seeds []int64, workerCounts []int) {
	t.Helper()
	for _, seed := range seeds {
		serialRes, serialTrace := runFingerprint(t, s, seed, 1)
		if len(serialRes) == 0 {
			t.Fatal("empty serial result")
		}
		for _, w := range workerCounts {
			parRes, parTrace := runFingerprint(t, s, seed, w)
			if !bytes.Equal(serialRes, parRes) {
				t.Errorf("seed %d workers %d: result JSON diverged from serial\nserial: %.400s\nparallel: %.400s",
					seed, w, serialRes, parRes)
			}
			if !bytes.Equal(serialTrace, parTrace) {
				t.Errorf("seed %d workers %d: trace document diverged from serial (serial %d bytes, parallel %d bytes)",
					seed, w, len(serialTrace), len(parTrace))
			}
		}
	}
}

// TestParallelHubEquivalence pins the tentpole contract on a hub: every
// chain cluster on its own partition produces the same-seed Result and
// trace byte-for-byte as the serial scheduler.
func TestParallelHubEquivalence(t *testing.T) {
	s := Scenario{
		Name:     "par-hub",
		Topology: Hub(3),
		Rate:     2,
		Windows:  3,
	}
	assertEquivalent(t, s, []int64{1, 7}, []int{2, 4})
}

// TestParallelMeshEquivalence covers the densest topology: every chain
// pair linked, partitions exchanging messages in all directions.
func TestParallelMeshEquivalence(t *testing.T) {
	s := Scenario{
		Name:     "par-mesh",
		Topology: Mesh(4),
		Rate:     1,
		Windows:  2,
	}
	assertEquivalent(t, s, []int64{3}, []int{2, 4})
}

// TestParallelForwardedRouteEquivalence exercises global route drivers
// plus middleware-forwarded multi-hop packets across three partitions.
func TestParallelForwardedRouteEquivalence(t *testing.T) {
	s := Scenario{
		Name:     "par-fwd",
		Topology: Line(3),
		Rate:     1,
		Windows:  2,
		Routes: []Route{
			{Path: []int{0, 1, 2}, Transfers: 3, Forwarded: true},
			{Path: []int{2, 1, 0}, Transfers: 2},
		},
	}
	assertEquivalent(t, s, []int64{5}, []int{2})
}

// TestParallelChaosFailoverEquivalence drives barrier-executed chaos
// faults (a whole-link partition crossing the supervisor's probes) with
// standby failover, the harshest global/partition interleaving.
func TestParallelChaosFailoverEquivalence(t *testing.T) {
	s := Scenario{
		Name:     "par-chaos",
		Topology: TwoChain(),
		Rate:     2,
		Windows:  3,
		Deploy: DeployConfig{
			Standby:             true,
			ClearIntervalBlocks: 2,
		},
		Chaos: chaos.Timeline{Events: []chaos.Event{
			{At: 12 * time.Second, Kind: chaos.RelayerPause, Edge: 0, Relayer: 0},
			{At: 40 * time.Second, Kind: chaos.LatencySpike, Edge: 0, Relayer: -1, ExtraLatency: 80 * time.Millisecond},
			{At: 55 * time.Second, Kind: chaos.LatencySpike, Edge: 0, Relayer: -1},
			{At: 70 * time.Second, Kind: chaos.RelayerResume, Edge: 0, Relayer: 0},
		}},
	}
	assertEquivalent(t, s, []int64{9}, []int{2})
}

// TestParallelFallsBackToSerial pins the safety gates: a single chain,
// full proofs or no positive lookahead must run serially even when
// workers are requested.
func TestParallelFallsBackToSerial(t *testing.T) {
	d, err := Deploy(TwoChain(), DeployConfig{Seed: 1, FullProofs: true, ParallelWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if d.Parallel() {
		t.Fatal("full-proof deployment did not fall back to serial")
	}
	d, err = Deploy(TwoChain(), DeployConfig{Seed: 1, ParallelWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Parallel() {
		t.Fatal("two-chain deployment did not partition")
	}
}
