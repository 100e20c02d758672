package geo

import (
	"testing"
	"time"

	"ibcbench/internal/netem"
	"ibcbench/internal/sim"
)

// probe is a network without jitter, so a message arrives exactly one
// base latency after it is sent: latency measures a pair by delivery.
type probe struct {
	s *sim.Scheduler
	n *netem.Network
}

func newProbe() probe {
	cfg := netem.DefaultWAN()
	cfg.JitterRelStd = 0
	s := sim.NewScheduler()
	return probe{s, netem.New(s, sim.NewRNG(1), cfg)}
}

func (p probe) latency(from, to netem.Host) time.Duration {
	start := p.s.Now()
	var at time.Duration
	p.n.SendHandler(from, to, sim.Func(func() { at = p.s.Now() }))
	p.s.RunUntil(start + time.Hour)
	return at - start
}

// latency reads the table by region name.
func latency(m *Model, from, to Region) time.Duration {
	return m.OneWay[m.index(from)][m.index(to)]
}

func TestThreeRegionWANAsymmetric(t *testing.T) {
	m := ThreeRegionWAN()
	fwd, rev := latency(m, "eu-west", "us-east"), latency(m, "us-east", "eu-west")
	if fwd == rev {
		t.Fatalf("matrix not asymmetric: both directions %v", fwd)
	}
	if fwd != 40*time.Millisecond || rev != 45*time.Millisecond {
		t.Fatalf("eu<->us paths = %v / %v", fwd, rev)
	}
	// The table is square over the regions, with the LAN path on the
	// diagonal.
	for i, row := range m.OneWay {
		if len(row) != len(m.Regions) {
			t.Fatalf("row %d has %d entries for %d regions", i, len(row), len(m.Regions))
		}
		if row[i] != 200*time.Microsecond {
			t.Fatalf("%s intra-region latency %v", m.Regions[i], row[i])
		}
	}
	if len(m.OneWay) != len(m.Regions) {
		t.Fatalf("%d rows for %d regions", len(m.OneWay), len(m.Regions))
	}
}

func TestParseSpec(t *testing.T) {
	for _, spec := range []string{"3wan", " 3WAN "} {
		m, err := ParseSpec(spec)
		if err != nil || m == nil {
			t.Fatalf("%q: %v", spec, err)
		}
		if m.Name != "3wan" {
			t.Fatalf("%q parsed as %s", spec, m.Name)
		}
	}
	// "lan" is the paper's LAN baseline: one region, RTT under 0.5 ms.
	if m, err := ParseSpec("lan"); err != nil || m.Name != "lan" || len(m.Regions) != 1 || 2*m.OneWay[0][0] >= 500*time.Microsecond {
		t.Fatalf("lan parsed as %+v (%v), want one region with an RTT under 0.5ms", m, err)
	}
	for _, spec := range []string{"", "none"} {
		if m, err := ParseSpec(spec); err != nil || m != nil {
			t.Fatalf("%q should parse to no model (got %v, %v)", spec, m, err)
		}
	}
	// The hub-and-spoke and uniform presets and the long 3wan alias are
	// gone: 3wan is the one multi-region model.
	for _, spec := range []string{"mars", "hubspoke", "uniform:1", "hubspoke:x", "uniform:257", "hubspoke:99999999",
		"hubspoke:3", "uniform:2", "three-region-wan"} {
		if _, err := ParseSpec(spec); err == nil {
			t.Fatalf("spec %q accepted", spec)
		}
	}
}

// TestCompileCompleteness: placing hosts one by one installs every
// ordered pair of distinct hosts, with the table's cross-region entry
// or its within-region diagonal.
func TestCompileCompleteness(t *testing.T) {
	m := ThreeRegionWAN()
	a := NewAssignment(m)
	p := newProbe()
	hosts := []netem.Host{"eu/val0", "eu/val1", "us/val0", "ap/val0"}
	regions := []Region{"eu-west", "eu-west", "us-east", "ap-south"}
	for i, h := range hosts {
		a.Place(p.n, h, regions[i])
	}
	for i, from := range hosts {
		for j, to := range hosts {
			if i == j {
				continue
			}
			if got, want := p.latency(from, to), latency(m, regions[i], regions[j]); got != want {
				t.Fatalf("%s -> %s latency %v, want %v", from, to, got, want)
			}
		}
	}
	// Spot-check the intra path and both directions of one cross pair.
	if got := p.latency("eu/val1", "eu/val0"); got != 200*time.Microsecond {
		t.Fatalf("intra-region pair got %v", got)
	}
	if got := p.latency("eu/val0", "us/val0"); got != 40*time.Millisecond {
		t.Fatalf("eu->us pair got %v", got)
	}
	if got := p.latency("us/val0", "eu/val0"); got != 45*time.Millisecond {
		t.Fatalf("us->eu pair got %v", got)
	}
	// Placing a host again leaves its pairs, and its own loopback, as
	// they were.
	a.Place(p.n, "eu/val0", "eu-west")
	if got := p.latency("eu/val0", "eu/val0"); got != netem.DefaultWAN().LoopbackLatency {
		t.Fatalf("re-placed host's loopback latency %v", got)
	}
	if got := p.latency("ap/val0", "eu/val0"); got != 95*time.Millisecond {
		t.Fatalf("ap->eu pair after re-placing got %v", got)
	}
}

func TestApplyAsymmetricOnNetwork(t *testing.T) {
	p := newProbe()
	a := NewAssignment(ThreeRegionWAN())
	a.Place(p.n, "h-eu", "eu-west")
	a.Place(p.n, "h-us", "us-east")
	if got := p.latency("h-eu", "h-us"); got != 40*time.Millisecond {
		t.Fatalf("eu->us latency %v", got)
	}
	if got := p.latency("h-us", "h-eu"); got != 45*time.Millisecond {
		t.Fatalf("us->eu latency %v", got)
	}
	// A third host joins ap-south: pairs in both directions appear.
	a.Place(p.n, "h-late", "ap-south")
	if got := p.latency("h-late", "h-eu"); got != 95*time.Millisecond {
		t.Fatalf("ap->eu latency %v", got)
	}
	if got := p.latency("h-us", "h-late"); got != 110*time.Millisecond {
		t.Fatalf("us->ap latency %v", got)
	}
	// Unassigned hosts keep the config default.
	if got := p.latency("h-eu", "stranger"); got != 100*time.Millisecond {
		t.Fatalf("unassigned pair latency %v", got)
	}
}
