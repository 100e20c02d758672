package geo

import (
	"testing"
	"time"

	"ibcbench/internal/netem"
	"ibcbench/internal/sim"
)

func TestPresetsValidate(t *testing.T) {
	if m := ThreeRegionWAN(); m.Validate() != nil {
		t.Fatalf("%s invalid: %v", m.Name, m.Validate())
	}
}

func TestThreeRegionWANAsymmetric(t *testing.T) {
	m := ThreeRegionWAN()
	fwd, ok := m.Path("eu-west", "us-east")
	if !ok {
		t.Fatal("missing eu->us path")
	}
	rev, ok := m.Path("us-east", "eu-west")
	if !ok {
		t.Fatal("missing us->eu path")
	}
	if fwd.OneWay == rev.OneWay {
		t.Fatalf("matrix not asymmetric: both directions %v", fwd.OneWay)
	}
	if fwd.OneWay != 40*time.Millisecond || rev.OneWay != 45*time.Millisecond {
		t.Fatalf("eu<->us paths = %v / %v", fwd.OneWay, rev.OneWay)
	}
}

func TestValidateRejectsIncompleteMatrix(t *testing.T) {
	m := NewModel("partial", lanIntra())
	m.AddRegion("a")
	m.AddRegion("b")
	m.SetPath("a", "b", Path{OneWay: time.Millisecond})
	// b -> a missing.
	if err := m.Validate(); err == nil {
		t.Fatal("incomplete matrix accepted")
	}
	if _, err := NewAssignment(m); err == nil {
		t.Fatal("assignment over incomplete matrix accepted")
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
	for _, spec := range []string{"", "none"} {
		if m, err := ParseSpec(spec); err != nil || m != nil {
			t.Fatalf("%q should parse to no model (got %v, %v)", spec, m, err)
		}
	}
	// The hub-and-spoke and uniform presets and the long 3wan alias are
	// gone: 3wan is the one region model.
	for _, spec := range []string{"mars", "hubspoke", "uniform:1", "hubspoke:x", "uniform:257", "hubspoke:99999999",
		"hubspoke:3", "uniform:2", "three-region-wan"} {
		if _, err := ParseSpec(spec); err == nil {
			t.Fatalf("spec %q accepted", spec)
		}
	}
}

// TestCompileCompleteness: placing hosts one by one installs every
// ordered pair of distinct hosts, with the matrix path for cross-region
// pairs and Intra for same-region pairs.
func TestCompileCompleteness(t *testing.T) {
	m := ThreeRegionWAN()
	a, err := NewAssignment(m)
	if err != nil {
		t.Fatal(err)
	}
	n := netem.New(sim.NewScheduler(), sim.NewRNG(1), netem.DefaultWAN())
	hosts := []netem.Host{"eu/val0", "eu/val1", "us/val0", "ap/val0"}
	regions := []Region{"eu-west", "eu-west", "us-east", "ap-south"}
	for i, h := range hosts {
		if err := a.PlaceAndApply(n, h, regions[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i, from := range hosts {
		for j, to := range hosts {
			if i == j {
				continue
			}
			want, _ := m.Path(regions[i], regions[j])
			if got := n.Latency(from, to); got != want.OneWay {
				t.Fatalf("%s -> %s latency %v, want %v", from, to, got, want.OneWay)
			}
		}
	}
	// Spot-check the intra path and both directions of one cross pair.
	if got := n.Latency("eu/val1", "eu/val0"); got != m.Intra.OneWay {
		t.Fatalf("intra-region pair got %v, want %v", got, m.Intra.OneWay)
	}
	if got := n.Latency("eu/val0", "us/val0"); got != 40*time.Millisecond {
		t.Fatalf("eu->us pair got %v", got)
	}
	if got := n.Latency("us/val0", "eu/val0"); got != 45*time.Millisecond {
		t.Fatalf("us->eu pair got %v", got)
	}
}

func TestApplyAsymmetricOnNetwork(t *testing.T) {
	s := sim.NewScheduler()
	n := netem.New(s, sim.NewRNG(1), netem.DefaultWAN())
	a, err := NewAssignment(ThreeRegionWAN())
	if err != nil {
		t.Fatal(err)
	}
	must := func(e error) {
		if e != nil {
			t.Fatal(e)
		}
	}
	must(a.PlaceAndApply(n, "h-eu", "eu-west"))
	must(a.PlaceAndApply(n, "h-us", "us-east"))
	if got := n.Latency("h-eu", "h-us"); got != 40*time.Millisecond {
		t.Fatalf("eu->us latency %v", got)
	}
	if got := n.Latency("h-us", "h-eu"); got != 45*time.Millisecond {
		t.Fatalf("us->eu latency %v", got)
	}
	// A third host joins ap-south: pairs in both directions appear.
	must(a.PlaceAndApply(n, "h-late", "ap-south"))
	if got := n.Latency("h-late", "h-eu"); got != 95*time.Millisecond {
		t.Fatalf("ap->eu latency %v", got)
	}
	if got := n.Latency("h-us", "h-late"); got != 110*time.Millisecond {
		t.Fatalf("us->ap latency %v", got)
	}
	// Unassigned hosts keep the config default.
	if got := n.Latency("h-eu", "stranger"); got != 100*time.Millisecond {
		t.Fatalf("unassigned pair latency %v", got)
	}
}

func TestPlaceRejectsUnknownRegion(t *testing.T) {
	a, err := NewAssignment(ThreeRegionWAN())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Place("h", "atlantis"); err == nil {
		t.Fatal("unknown region accepted")
	}
}
