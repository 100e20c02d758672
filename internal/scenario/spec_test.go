package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestGoldenRoundTrip pins the canonical encoding: every golden file
// parses, and re-encoding reproduces the file byte for byte. Regenerate
// with UPDATE_GOLDEN=1 go test ./internal/scenario -run Golden.
func TestGoldenRoundTrip(t *testing.T) {
	files, err := filepath.Glob("testdata/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden specs found: %v", err)
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := Parse(data)
			if err != nil {
				t.Fatalf("parse %s: %v", file, err)
			}
			enc, err := Encode(spec)
			if err != nil {
				t.Fatalf("encode %s: %v", file, err)
			}
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(file, enc, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			if string(enc) != string(data) {
				t.Errorf("%s is not canonical:\n--- file ---\n%s\n--- encode ---\n%s", file, data, enc)
			}
			if _, err := Compile(spec); err != nil {
				t.Errorf("compile %s: %v", file, err)
			}
		})
	}
}

func TestDurationForms(t *testing.T) {
	spec := `{"name":"d","topology":{"preset":"two"},"deploy":{},"workload":{"rate":1},"until":"1m30s","chaos":[{"at":150000000,"kind":"latency-spike","edge":0,"extraLatency":"20ms"}]}`
	s, err := Parse([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	if s.Until.D() != 90*time.Second {
		t.Errorf("until = %v", s.Until)
	}
	if s.Chaos[0].At.D() != 150*time.Millisecond || s.Chaos[0].ExtraLatency.D() != 20*time.Millisecond {
		t.Errorf("event times = %v / %v", s.Chaos[0].At, s.Chaos[0].ExtraLatency)
	}
}

func TestParseRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field":     `{"name":"x","topology":{"preset":"two"},"deploy":{},"workload":{},"bogus":1}`,
		"missing name":      `{"topology":{"preset":"two"},"deploy":{},"workload":{}}`,
		"bad preset":        `{"name":"x","topology":{"preset":"ring:9"},"deploy":{},"workload":{}}`,
		"preset and chains": `{"name":"x","topology":{"preset":"two","chains":[{},{}]},"deploy":{},"workload":{}}`,
		"bad kind":          `{"name":"x","topology":{"preset":"two"},"deploy":{},"workload":{},"chaos":[{"at":"1s","kind":"meteor","edge":0}]}`,
		"edge out of range": `{"name":"x","topology":{"preset":"two"},"deploy":{},"workload":{},"chaos":[{"at":"1s","kind":"partition","edge":3}]}`,
		"relayer ordinal":   `{"name":"x","topology":{"preset":"two"},"deploy":{},"workload":{},"chaos":[{"at":"1s","kind":"relayer-pause","edge":0,"relayer":5}]}`,
		"route off-graph":   `{"name":"x","topology":{"preset":"two"},"deploy":{},"workload":{"routes":[{"path":[0,2],"transfers":1}]}}`,
		"bad assertion":     `{"name":"x","topology":{"preset":"two"},"deploy":{},"workload":{},"assertions":["no-bugs"]}`,
		"bad edgeRates key": `{"name":"x","topology":{"preset":"two"},"deploy":{},"workload":{"edgeRates":{"a":1}}}`,
		"recovery in space": `{"name":"x","topology":{"preset":"two"},"deploy":{},"workload":{},"faults":{"kinds":["heal"]}}`,
		"trailing garbage":  `{"name":"x","topology":{"preset":"two"},"deploy":{},"workload":{}} {"x":1}`,
		// Calibration is not a spec knob: Hermes' batch cap and the
		// failover detection window are fixed constants.
		"deploy.maxMsgsPerTx":         `{"name":"x","topology":{"preset":"two"},"deploy":{"maxMsgsPerTx":50},"workload":{}}`,
		"deploy.failoverDetectBlocks": `{"name":"x","topology":{"preset":"two"},"deploy":{"failoverDetectBlocks":3},"workload":{}}`,
	}
	for name, raw := range cases {
		if _, err := Parse([]byte(raw)); err == nil {
			t.Errorf("%s: parse accepted %s", name, raw)
		}
	}
}

// TestRelayerResolution pins the optional-relayer lowering conventions.
func TestRelayerResolution(t *testing.T) {
	s, err := Parse([]byte(`{"name":"x","topology":{"preset":"two"},"deploy":{"relayersPerEdge":2},"workload":{"rate":1},"chaos":[
		{"at":"1s","kind":"partition","edge":0},
		{"at":"2s","kind":"partition","edge":0,"relayer":1},
		{"at":"3s","kind":"relayer-pause","edge":0}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.Chaos.Events[0].Relayer; got != -1 {
		t.Errorf("bare partition relayer = %d, want -1 (whole link)", got)
	}
	if got := sc.Chaos.Events[1].Relayer; got != 1 {
		t.Errorf("explicit partition relayer = %d, want 1", got)
	}
	if got := sc.Chaos.Events[2].Relayer; got != 0 {
		t.Errorf("bare pause relayer = %d, want 0", got)
	}
}

// TestEdgeRateCompile pins blanket + override + removal semantics.
func TestEdgeRateCompile(t *testing.T) {
	s, err := Parse([]byte(`{"name":"x","topology":{"preset":"hub:3"},"deploy":{},"workload":{"rate":4,"edgeRates":{"1":9,"2":0}}}`))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]int{0: 4, 1: 9}
	if len(sc.EdgeRates) != len(want) {
		t.Fatalf("EdgeRates = %v, want %v", sc.EdgeRates, want)
	}
	for k, v := range want {
		if sc.EdgeRates[k] != v {
			t.Errorf("EdgeRates[%d] = %d, want %d", k, sc.EdgeRates[k], v)
		}
	}
}

// TestExplicitTopology compiles a hand-built graph with regions and
// per-edge relayer overrides.
func TestExplicitTopology(t *testing.T) {
	raw := `{"name":"custom","topology":{"chains":[{"id":"alpha","region":"eu-west"},{"validators":7}],"edges":[{"a":0,"b":1,"relayers":2,"standby":true}]},"regions":"3wan","deploy":{},"workload":{"rate":1}}`
	s, err := Parse([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Topology.Chains[0].ID != "alpha" || sc.Topology.Chains[1].Validators != 7 {
		t.Errorf("chains = %+v", sc.Topology.Chains)
	}
	if sc.Topology.Edges[0].Relayers != 2 || !sc.Topology.Edges[0].Standby {
		t.Errorf("edges = %+v", sc.Topology.Edges)
	}
	if !strings.Contains(string(mustEncode(t, s)), `"region": "eu-west"`) {
		t.Error("region lost in encoding")
	}
}

func mustEncode(t *testing.T, s Spec) []byte {
	t.Helper()
	data, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
