package experiments

import (
	"encoding/json"
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
				res, _, err := sc.RunDeployed(c.seed)
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
// variant-major in seed order through scenario.Run, results come back
// grouped by variant, and the first cell in input order that fails, to
// run or on one of its assertions, is the one reported.
func TestGrid(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // a 4-wide pool
	opt := Options{Seeds: 3}
	seedOf := func(v, i int) int64 { return int64(100*(v+1) + i) }
	settled := testbedSpec("settled", scenario.WorkloadSpec{Transfers: 1, Windows: 1})
	settled.Until = scenario.Duration(time.Minute)
	label := func(v int, rep *scenario.Report) string { return fmt.Sprintf("v%d/s%d", v, rep.Result.Seed) }
	got, err := specGrid(opt, "demo", []scenario.Spec{settled, settled}, seedOf, label)
	if err != nil {
		t.Fatal(err)
	}
	if want := "[[v0/s100 v0/s101 v0/s102] [v1/s200 v1/s201 v1/s202]]"; fmt.Sprint(got) != want {
		t.Fatalf("grid = %v, want %s", got, want)
	}

	// Stopped before its one packet is relayed: no-stuck-packets fails on
	// every cell of variant 1, and the first of them is reported.
	stuck := settled
	stuck.Until = scenario.Duration(6 * time.Second)
	_, err = specGrid(opt, "demo", []scenario.Spec{settled, stuck}, seedOf, label)
	if err == nil || !strings.Contains(err.Error(), "demo (cell 3, seed 200)") || !strings.Contains(err.Error(), scenario.AssertNoStuckPackets) {
		t.Fatalf("grid error = %v, want the first violating cell (3, seed 200) naming %s", err, scenario.AssertNoStuckPackets)
	}
	nameless := settled
	nameless.Name = ""
	if _, err = specGrid(opt, "demo", []scenario.Spec{nameless}, seedOf, label); err == nil || !strings.Contains(err.Error(), "demo (cell 0, seed 100)") {
		t.Fatalf("grid error = %v, want the invalid spec's first cell (0, seed 100)", err)
	}
}

// TestCellSpecsRoundTrip: every cell spec each figure builds, at
// the sweep's defaults, encodes, parses back to the same bytes and
// compiles, so any cell can be written out and rerun with `ibcbench run
// -scenario`.
func TestCellSpecsRoundTrip(t *testing.T) {
	opt := Options{Seeds: 1}
	hub4 := topo.Hub(4)
	var tendermint, fig13, forward, failover, votescale []scenario.Spec
	for _, rate := range DefaultTendermintRates {
		tendermint = append(tendermint, tendermintSpec(rate, opt.windows(15)))
	}
	relayers := func(n int, lan bool) (out []scenario.Spec) {
		for _, rate := range DefaultRelayerRates {
			out = append(out, relayerSpec(rate, opt.windows(50), n, lan))
		}
		return out
	}
	for _, blocks := range DefaultStrategies {
		fig13 = append(fig13, burstSpec(5000, blocks))
	}
	for _, path := range hopPaths(hub4) {
		forward = append(forward, forwardingSpec(opt, "hub:4", path, 20))
	}
	for _, w := range DefaultFaultWindows {
		failover = append(failover, failoverSpec(opt, "hub:4", 20, w))
	}
	for _, v := range DefaultVoteScaleSizes {
		votescale = append(votescale, voteScaleSpec(opt, "hub:4", 20, v))
	}
	cells := map[string][]scenario.Spec{
		"tendermint": tendermint,
		"fig8":       relayers(1, false),
		"fig8-lan":   relayers(1, true),
		"fig9":       relayers(2, false),
		"fig9-lan":   relayers(2, true),
		"fig12":      {burstSpec(5000, 1)},
		"fig13":      fig13,
		"gas":        {gasSpec()},
		"topo":       {topologySpec(opt, hub4, "hub:4", 20, false), topologySpec(opt, hub4, "hub:4", 20, true)},
		"forward":    forward,
		"failover":   failover,
		"votescale":  votescale,
		"ws":         {wsSpec()},
	}
	for _, e := range Catalogue() {
		if e.Spec != nil {
			continue
		}
		if len(cells[e.Name]) == 0 {
			t.Errorf("figure %q: no cell specs listed here", e.Name)
		}
		for _, s := range cells[e.Name] {
			enc, err := scenario.Encode(s)
			if err != nil {
				t.Fatalf("%s: encode %s: %v", e.Name, s.Name, err)
			}
			back, err := scenario.Parse(enc)
			if err != nil {
				t.Fatalf("%s: re-parse %s: %v\n%s", e.Name, s.Name, err, enc)
			}
			if again, _ := scenario.Encode(back); string(again) != string(enc) {
				t.Errorf("%s: %s does not round-trip:\n%s\n%s", e.Name, s.Name, enc, again)
			}
			if _, err := scenario.Compile(back); err != nil {
				t.Errorf("%s: compile %s: %v", e.Name, s.Name, err)
			}
		}
	}
}
