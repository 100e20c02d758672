package geo

import (
	"testing"
	"time"

	"ibcbench/internal/netem"
	"ibcbench/internal/sim"
)

func TestPresetsValidate(t *testing.T) {
	for _, m := range []*Model{ThreeRegionWAN(), HubAndSpoke(3), Uniform(4, 100*time.Millisecond)} {
		if err := m.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", m.Name, err)
		}
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

func TestHubAndSpokeHairpin(t *testing.T) {
	m := HubAndSpoke(3)
	core, _ := m.Path("edge-1", "core")
	cross, _ := m.Path("edge-1", "edge-2")
	if cross.OneWay != 2*core.OneWay {
		t.Fatalf("edge-to-edge %v, want 2x edge-to-core %v", cross.OneWay, core.OneWay)
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
	for spec, name := range map[string]string{
		"3wan":       "3wan",
		"hubspoke:4": "hubspoke:4",
		"uniform:3":  "uniform:3",
	} {
		m, err := ParseSpec(spec)
		if err != nil || m == nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if m.Name != name {
			t.Fatalf("%s parsed as %s", spec, m.Name)
		}
	}
	for _, spec := range []string{"", "none"} {
		if m, err := ParseSpec(spec); err != nil || m != nil {
			t.Fatalf("%q should parse to no model (got %v, %v)", spec, m, err)
		}
	}
	for _, spec := range []string{"mars", "hubspoke", "uniform:1", "hubspoke:x", "uniform:257", "hubspoke:99999999"} {
		if _, err := ParseSpec(spec); err == nil {
			t.Fatalf("spec %q accepted", spec)
		}
	}
}

// TestCompileCompleteness: the compiled override set covers every
// ordered pair of distinct assigned hosts, with the matrix path for
// cross-region pairs and Intra for same-region pairs.
func TestCompileCompleteness(t *testing.T) {
	m := ThreeRegionWAN()
	a, err := NewAssignment(m)
	if err != nil {
		t.Fatal(err)
	}
	hosts := map[netem.Host]Region{
		"eu/val0": "eu-west", "eu/val1": "eu-west",
		"us/val0": "us-east", "ap/val0": "ap-south",
	}
	for h, r := range hosts {
		if err := a.Place(h, r); err != nil {
			t.Fatal(err)
		}
	}
	overrides := a.Compile()
	n := len(hosts)
	if len(overrides) != n*(n-1) {
		t.Fatalf("compiled %d overrides, want full pair set %d", len(overrides), n*(n-1))
	}
	seen := map[[2]netem.Host]Path{}
	for _, o := range overrides {
		if o.From == o.To {
			t.Fatalf("self-pair override %s", o.From)
		}
		seen[[2]netem.Host{o.From, o.To}] = o.Path
	}
	// Same-region pair: intra profile.
	if got := seen[[2]netem.Host{"eu/val0", "eu/val1"}]; got.OneWay != m.Intra.OneWay {
		t.Fatalf("intra-region pair got %v, want %v", got.OneWay, m.Intra.OneWay)
	}
	// Cross-region pairs: the directed matrix entries.
	if got := seen[[2]netem.Host{"eu/val0", "us/val0"}]; got.OneWay != 40*time.Millisecond {
		t.Fatalf("eu->us pair got %v", got.OneWay)
	}
	if got := seen[[2]netem.Host{"us/val0", "eu/val0"}]; got.OneWay != 45*time.Millisecond {
		t.Fatalf("us->eu pair got %v", got.OneWay)
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
	must(a.Place("h-eu", "eu-west"))
	must(a.Place("h-us", "us-east"))
	a.Apply(n)
	if got := n.Latency("h-eu", "h-us"); got != 40*time.Millisecond {
		t.Fatalf("eu->us latency %v", got)
	}
	if got := n.Latency("h-us", "h-eu"); got != 45*time.Millisecond {
		t.Fatalf("us->eu latency %v", got)
	}
	if got := n.RTT("h-eu", "h-us"); got != 85*time.Millisecond {
		t.Fatalf("rtt %v", got)
	}
	// Late host joins us-east: pairs in both directions appear.
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
