package scenario

import "time"

// The specs of the catalogue's built-in scenarios, as literals for the
// tests here: the catalogue lives in internal/experiments, which
// imports this package.

func quickstartSpec() Spec {
	return Spec{
		Name:     "quickstart",
		Topology: TopologySpec{Preset: "two"},
		Workload: WorkloadSpec{Rate: 1, Windows: 1},
		Seed:     1,
	}
}

func hubSpec() Spec {
	return Spec{
		Name:     "hub",
		Topology: TopologySpec{Preset: "hub:3"},
		Workload: WorkloadSpec{
			Rate:    5,
			Windows: 3,
			Routes:  []RouteSpec{{Path: []int{1, 0, 2}, Transfers: 5}},
		},
		Seed: 500,
	}
}

func meshSpec() Spec {
	return Spec{
		Name:     "mesh",
		Topology: TopologySpec{Preset: "mesh:3"},
		Workload: WorkloadSpec{Rate: 4, Windows: 4},
		Seed:     400,
	}
}

func pfmrouteSpec() Spec {
	return Spec{
		Name:     "pfmroute",
		Topology: TopologySpec{Preset: "line:3"},
		Workload: WorkloadSpec{Routes: []RouteSpec{
			{Path: []int{0, 1, 2}, Transfers: 4},
			{Path: []int{0, 1, 2}, Transfers: 4, Forwarded: true},
		}},
		Seed: 1,
	}
}

func roundtripSpec() Spec {
	return Spec{
		Name:     "roundtrip",
		Topology: TopologySpec{Preset: "line:3"},
		Workload: WorkloadSpec{Routes: []RouteSpec{
			{Path: []int{0, 1, 2, 1, 0}, Transfers: 4},
		}},
		Seed: 1,
	}
}

func failoverSpec() Spec {
	return Spec{
		Name:     "failover",
		Topology: TopologySpec{Preset: "hub:2"},
		Regions:  "3wan",
		Deploy:   DeploySpec{Standby: true},
		Workload: WorkloadSpec{Rate: 3, Windows: 4},
		Chaos: []EventSpec{
			{At: Duration(12 * time.Second), Kind: "partition", Edge: 0, Relayer: intp(0)},
			{At: Duration(30 * time.Second), Kind: "latency-spike", Edge: 1, ExtraLatency: Duration(100 * time.Millisecond)},
			{At: Duration(90 * time.Second), Kind: "latency-spike", Edge: 1},
			{At: Duration(3 * time.Minute), Kind: "heal", Edge: 0, Relayer: intp(0)},
		},
		Faults: &FaultSpace{
			Kinds:          []string{"partition", "latency-spike", "relayer-pause"},
			MaxEvents:      3,
			Horizon:        Duration(45 * time.Second),
			MaxFaultWindow: Duration(40 * time.Second),
		},
		Seed:  42,
		Until: Duration(6 * time.Minute),
	}
}

func plaintimeoutSpec() Spec {
	return Spec{
		Name:     "plaintimeout",
		Topology: TopologySpec{Preset: "two"},
		Deploy:   DeploySpec{ClearIntervalBlocks: 1},
		Workload: WorkloadSpec{Routes: []RouteSpec{
			{Path: []int{0, 1}, Transfers: 3, TimeoutBlocks: 2},
		}},
		Chaos: []EventSpec{
			{At: Duration(2 * time.Second), Kind: "partition", Edge: 0, Relayer: intp(0)},
			{At: Duration(45 * time.Second), Kind: "heal", Edge: 0, Relayer: intp(0)},
		},
		Seed: 3,
	}
}

func timeoutstormSpec() Spec {
	return Spec{
		Name:     "timeoutstorm",
		Topology: TopologySpec{Preset: "line:3"},
		Workload: WorkloadSpec{Routes: []RouteSpec{
			{Path: []int{0, 1, 2}, Transfers: 3, Forwarded: true, TimeoutBlocks: 1},
		}},
		Seed:         7,
		SettleBlocks: 24,
	}
}

func timeoutproofsSpec() Spec {
	s := timeoutstormSpec()
	s.Name = "timeoutproofs"
	s.Deploy.FullProofs = true
	return s
}
