package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"ibcbench/internal/chaos"
	"ibcbench/internal/geo"
	"ibcbench/internal/scenario"
	"ibcbench/internal/simconf"
	"ibcbench/internal/topo"
)

// TestSpecBuiltMatchesHandBuilt pins the drivers' spec builders against
// the topo.Scenario literals they replaced: for one cell of each
// experiment, the hand-built scenario and the spec-built one produce
// byte-identical results at the driver's own seed for that cell.
func TestSpecBuiltMatchesHandBuilt(t *testing.T) {
	threeWAN, err := geo.ParseSpec("3wan")
	if err != nil {
		t.Fatal(err)
	}
	faultStart := 3 * simconf.MinBlockInterval
	topoOpt := Options{Windows: 2}
	cases := []struct {
		name string
		seed int64
		hand topo.Scenario
		spec func() (topo.Scenario, error)
	}{
		{
			name: "topo hub:3 sequential", seed: 300, // 100*rate + 0
			hand: topo.Scenario{
				Name: "hub:3", Topology: topo.Hub(3), Rate: 3, Windows: 2,
				Routes: []topo.Route{{Path: []int{1, 0, 2}, Transfers: 3}},
			},
			spec: func() (topo.Scenario, error) {
				return scenario.Compile(topologySpec(topoOpt, topo.Hub(3), "hub:3", 3, false))
			},
		},
		{
			name: "topo hub:3 forwarded", seed: 300,
			hand: topo.Scenario{
				Name: "hub:3", Topology: topo.Hub(3), Rate: 3, Windows: 2,
				Routes: []topo.Route{{Path: []int{1, 0, 2}, Transfers: 3, Forwarded: true}},
			},
			spec: func() (topo.Scenario, error) {
				return scenario.Compile(topologySpec(topoOpt, topo.Hub(3), "hub:3", 3, true))
			},
		},
		{
			name: "forward line:3 two hops", seed: 2000, // 1000*(hop index 1 + 1) + 0
			hand: topo.Scenario{
				Name: "line:3-hops2", Topology: topo.Line(3),
				Routes: []topo.Route{
					{Path: []int{0, 1, 2}, Transfers: 2},
					{Path: []int{0, 1, 2}, Transfers: 2, Forwarded: true},
				},
			},
			spec: func() (topo.Scenario, error) {
				return scenario.Compile(forwardingSpec(Options{}, "line:3", []int{0, 1, 2}, 2))
			},
		},
		{
			name: "failover hub:2 3wan 30s", seed: 18000, // 9000*(window index 1 + 1) + 0
			hand: topo.Scenario{
				Name: "failover-hub:2-w30s", Topology: topo.Hub(2),
				Deploy: topo.DeployConfig{Geo: threeWAN, Standby: true},
				Rate:   2, Windows: 2, RecordCurves: true,
				Chaos: chaos.Timeline{Events: []chaos.Event{
					{At: faultStart, Kind: chaos.PartitionLink, Edge: 0, Relayer: 0},
					{At: faultStart + 30*time.Second, Kind: chaos.HealLink, Edge: 0, Relayer: 0},
				}},
			},
			spec: func() (topo.Scenario, error) {
				opt := Options{Windows: 2, Regions: "3wan"}
				return scenario.Compile(failoverSpec(opt, "hub:2", 2, 30*time.Second))
			},
		},
		{
			name: "votescale two V=8", seed: 1400, // 700*(size index 1 + 1) + 0
			hand: topo.Scenario{
				Name: "votescale-two-v8", Topology: topo.TwoChain(),
				Deploy: topo.DeployConfig{Validators: 8},
				Rate:   2, Windows: 4,
			},
			spec: func() (topo.Scenario, error) { return scenario.Compile(voteScaleSpec(Options{}, "two", 2, 8)) },
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			built, err := c.spec()
			if err != nil {
				t.Fatal(err)
			}
			run := func(sc topo.Scenario) string {
				res, err := sc.Run(c.seed)
				if err != nil {
					t.Fatal(err)
				}
				data, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				return string(data)
			}
			if want, got := run(c.hand), run(built); want != got {
				t.Fatalf("spec-built scenario diverged from the hand-built one:\nhand: %s\nspec: %s", want, got)
			}
		})
	}
}

// TestGrid pins the sweep loop the drivers share: cells run
// variant-major in seed order, results come back grouped by variant, and
// the first failing cell in input order is the one reported.
func TestGrid(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // a 4-wide pool
	opt := Options{Seeds: 3}
	seedOf := func(v, i int) int64 { return int64(100*(v+1) + i) }
	got, err := grid(opt, "demo", 2, seedOf, func(v int, seed int64) (string, error) {
		return fmt.Sprintf("v%d/s%d", v, seed), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := "[[v0/s100 v0/s101 v0/s102] [v1/s200 v1/s201 v1/s202]]"; fmt.Sprint(got) != want {
		t.Fatalf("grid = %v, want %s", got, want)
	}

	boom := errors.New("boom")
	_, err = grid(opt, "demo", 2, seedOf, func(v int, seed int64) (string, error) {
		if seed == 102 || seed == 201 {
			return "", boom
		}
		return "", nil
	})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "demo (cell 2, seed 102)") {
		t.Fatalf("grid error = %v, want the first failing cell (2, seed 102) wrapping boom", err)
	}
}
