// Built-in named scenarios: small demonstrations and spec equivalents
// of the `sweep` experiments' single runs, which `ibcbench suite` runs
// and CI lints. Each one is also a living sample of the DSL — `ibcbench
// run -name <x> -print` dumps the canonical spec text.
package scenario

import "time"

func intp(i int) *int { return &i }

// builtins is the registry's table, in catalogue order.
var builtins = []Entry{
	// The paper's minimal testbed: two chains, one relayer, a trickle of
	// transfers.
	{
		Desc:  "two chains, one relayer, one window of transfers",
		Short: true,
		Spec: Spec{
			Name:     "quickstart",
			Topology: TopologySpec{Preset: "two"},
			Workload: WorkloadSpec{Rate: 1, Windows: 1},
			Seed:     1,
		},
	},

	// The CI topology smoke (`sweep -experiment topo -topology hub:3
	// -rate 5 -windows 3`), demo route included.
	{
		Desc:  "hub:3 sweep workload, 5 rps per edge plus the demo route",
		Short: true,
		Spec: Spec{
			Name:     "hub",
			Topology: TopologySpec{Preset: "hub:3"},
			Workload: WorkloadSpec{
				Rate:    5,
				Windows: 3,
				Routes:  []RouteSpec{{Path: []int{1, 0, 2}, Transfers: 5}},
			},
			Seed: 500,
		},
	},

	// Full mesh under uniform load (`sweep -experiment topo -topology
	// mesh:3`).
	{
		Desc: "mesh:3 under 4 rps on every edge",
		Spec: Spec{
			Name:     "mesh",
			Topology: TopologySpec{Preset: "mesh:3"},
			Workload: WorkloadSpec{Rate: 4, Windows: 4},
			Seed:     400,
		},
	},

	// One multi-hop route in both modes across a 3-chain line —
	// sequential legs vs packet-forward middleware.
	{
		Desc:  "line:3 route comparison, sequential legs vs packet forwarding",
		Short: true,
		Spec: Spec{
			Name:     "pfmroute",
			Topology: TopologySpec{Preset: "line:3"},
			Workload: WorkloadSpec{Routes: []RouteSpec{
				{Path: []int{0, 1, 2}, Transfers: 4},
				{Path: []int{0, 1, 2}, Transfers: 4, Forwarded: true},
			}},
			Seed: 1,
		},
	},

	// A sequential route that comes home: each leg spends what the last
	// one delivered, so the tokens go out as vouchers of vouchers and
	// come back unescrowed hop by hop, the ICS-20 unwind no one-way
	// route reaches.
	{
		Desc:  "line:3 round trip 0->1->2->1->0, each leg spending what the last delivered",
		Short: true,
		Spec: Spec{
			Name:     "roundtrip",
			Topology: TopologySpec{Preset: "line:3"},
			Workload: WorkloadSpec{Routes: []RouteSpec{
				{Path: []int{0, 1, 2, 1, 0}, Transfers: 4},
			}},
			Seed: 1,
		},
	},

	// Geo-distributed hub, standby relayers, a mid-run relayer blackout
	// plus a latency spike, healed before the deadline. Declares a fault
	// space so it doubles as the default chaos-search demo.
	{
		Desc: "geo hub with standby relayers under partition + latency chaos",
		Spec: Spec{
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
		},
	},

	// A plain ICS-20 timeout, no middleware: the only relayer's host is
	// cut off for longer than the packets' timeout, so once the link
	// heals the relayer proves the timeouts on the source and the
	// transfer module refunds the sender. Its RPC replies lost to the
	// partition run the client timeouts out.
	{
		Desc:  "two chains, relayer cut off past the packet timeout, then healed (timeout refunds)",
		Short: true,
		Spec: Spec{
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
		},
	},

	// Hop-timeout unwinding: a forwarded route with a one-block timeout
	// margin forces mid-route timeouts; the refund invariant must still
	// hold once everything settles.
	{
		Desc: "forwarded route under a tiny hop-timeout margin (refund unwinding)",
		Spec: Spec{
			Name:     "timeoutstorm",
			Topology: TopologySpec{Preset: "line:3"},
			Workload: WorkloadSpec{Routes: []RouteSpec{
				{Path: []int{0, 1, 2}, Transfers: 3, Forwarded: true, TimeoutBlocks: 1},
			}},
			Seed:         7,
			SettleBlocks: 24,
		},
	},

	// The same storm under full proofs: every hop timeout's MsgTimeout
	// carries a non-membership proof of the destination receipt, the leg
	// no proof-free run reaches.
	{
		Desc:  "timeoutstorm under full Merkle proofs (non-membership timeout proofs)",
		Short: true,
		Spec: Spec{
			Name:     "timeoutproofs",
			Topology: TopologySpec{Preset: "line:3"},
			Deploy:   DeploySpec{FullProofs: true},
			Workload: WorkloadSpec{Routes: []RouteSpec{
				{Path: []int{0, 1, 2}, Transfers: 3, Forwarded: true, TimeoutBlocks: 1},
			}},
			Seed:         7,
			SettleBlocks: 24,
		},
	},
}
