package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ibcbench/internal/chaos"
)

// TestGoldenRoundTrip pins the canonical encoding: every golden file and
// every benchmark workload spec parses, re-encodes to the file byte for
// byte, and compiles. Regenerate the golden files (never the benchmark's)
// with UPDATE_GOLDEN=1 go test ./internal/scenario -run Golden.
func TestGoldenRoundTrip(t *testing.T) {
	for _, dir := range []string{"testdata", "../../bench/workloads"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no specs found in %s: %v", dir, err)
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
				if os.Getenv("UPDATE_GOLDEN") != "" && dir == "testdata" {
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
		"bad kind":          `{"name":"x","topology":{"preset":"two"},"deploy":{},"workload":{},"chaos":[{"at":"1s","kind":"meteor","edge":0}]}`,
		"edge out of range": `{"name":"x","topology":{"preset":"two"},"deploy":{},"workload":{},"chaos":[{"at":"1s","kind":"partition","edge":3}]}`,
		"relayer ordinal":   `{"name":"x","topology":{"preset":"two"},"deploy":{},"workload":{},"chaos":[{"at":"1s","kind":"relayer-pause","edge":0,"relayer":5}]}`,
		"route off-graph":   `{"name":"x","topology":{"preset":"two"},"deploy":{},"workload":{"routes":[{"path":[0,2],"transfers":1}]}}`,
		"bad assertion":     `{"name":"x","topology":{"preset":"two"},"deploy":{},"workload":{},"assertions":["no-bugs"]}`,
		"recovery in space": `{"name":"x","topology":{"preset":"two"},"deploy":{},"workload":{},"faults":{"kinds":["heal"]}}`,
		"trailing garbage":  `{"name":"x","topology":{"preset":"two"},"deploy":{},"workload":{}} {"x":1}`,
		// Calibration is not a spec knob: Hermes' batch cap and the
		// failover detection window are fixed constants.
		"deploy.maxMsgsPerTx":         `{"name":"x","topology":{"preset":"two"},"deploy":{"maxMsgsPerTx":50},"workload":{}}`,
		"deploy.failoverDetectBlocks": `{"name":"x","topology":{"preset":"two"},"deploy":{"failoverDetectBlocks":3},"workload":{}}`,
		// Search draws over every edge with fixed fault magnitudes.
		"faults.edges":           `{"name":"x","topology":{"preset":"two"},"deploy":{},"workload":{},"faults":{"edges":[0]}}`,
		"faults.maxExtraLatency": `{"name":"x","topology":{"preset":"two"},"deploy":{},"workload":{},"faults":{"maxExtraLatency":"1s"}}`,
		"faults.maxExtraDrop":    `{"name":"x","topology":{"preset":"two"},"deploy":{},"workload":{},"faults":{"maxExtraDrop":0.2}}`,
		// A preset names the graph, one rate loads every edge, and 3wan is
		// the one region model.
		"topology.chains":          `{"name":"x","topology":{"chains":[{},{}]},"deploy":{},"workload":{}}`,
		"topology.edges":           `{"name":"x","topology":{"preset":"two","edges":[{"a":0,"b":1}]},"deploy":{},"workload":{}}`,
		"workload.edgeRates":       `{"name":"x","topology":{"preset":"two"},"deploy":{},"workload":{"edgeRates":{"0":1}}}`,
		"regions hubspoke:3":       `{"name":"x","topology":{"preset":"two"},"regions":"hubspoke:3","deploy":{},"workload":{}}`,
		"regions uniform:2":        `{"name":"x","topology":{"preset":"two"},"regions":"uniform:2","deploy":{},"workload":{}}`,
		"regions three-region-wan": `{"name":"x","topology":{"preset":"two"},"regions":"three-region-wan","deploy":{},"workload":{}}`,
		// Zero selects a default; a negative value is a typo, not a
		// default.
		"negative validators":          `{"name":"x","topology":{"preset":"two"},"deploy":{"validators":-3},"workload":{}}`,
		"negative relayersPerEdge":     `{"name":"x","topology":{"preset":"two"},"deploy":{"relayersPerEdge":-1},"workload":{}}`,
		"negative clearIntervalBlocks": `{"name":"x","topology":{"preset":"two"},"deploy":{"clearIntervalBlocks":-1},"workload":{}}`,
		"negative parallelWorkers":     `{"name":"x","topology":{"preset":"two"},"deploy":{"parallelWorkers":-2},"workload":{}}`,
		"negative windows":             `{"name":"x","topology":{"preset":"two"},"deploy":{},"workload":{"windows":-2}}`,
		"negative settleBlocks":        `{"name":"x","topology":{"preset":"two"},"deploy":{},"workload":{},"settleBlocks":-4}`,
		"negative until":               `{"name":"x","topology":{"preset":"two"},"deploy":{},"workload":{},"until":"-1m"}`,
		"negative timeoutBlocks":       `{"name":"x","topology":{"preset":"line:3"},"deploy":{},"workload":{"routes":[{"path":[0,1,2],"transfers":1,"forwarded":true,"timeoutBlocks":-5}]}}`,
		// A forwarded route's margin is the forward middleware's, and a
		// two-node forwarded route crosses no middleware.
		"timeoutBlocks on two-node forwarded": `{"name":"x","topology":{"preset":"two"},"deploy":{},"workload":{"routes":[{"path":[0,1],"transfers":1,"forwarded":true,"timeoutBlocks":1}]}}`,
		// A fixed deadline leaves nothing for settleBlocks to extend.
		"until with settleBlocks": `{"name":"x","topology":{"preset":"two"},"deploy":{},"workload":{"rate":1},"until":"1m","settleBlocks":40}`,
		// The spec is the one place a run's shape is checked: nothing
		// below it re-checks routes or chaos targets.
		"negative at":                `{"name":"x","topology":{"preset":"two"},"deploy":{},"workload":{},"chaos":[{"at":"-1s","kind":"heal","edge":0}]}`,
		"edge -1":                    `{"name":"x","topology":{"preset":"two"},"deploy":{},"workload":{},"chaos":[{"at":"1s","kind":"partition","edge":-1}]}`,
		"pause relayer -1":           `{"name":"x","topology":{"preset":"two"},"deploy":{},"workload":{},"chaos":[{"at":"1s","kind":"relayer-pause","edge":0,"relayer":-1}]}`,
		"partition relayer >= slots": `{"name":"x","topology":{"preset":"two"},"deploy":{"standby":true},"workload":{},"chaos":[{"at":"1s","kind":"partition","edge":0,"relayer":2}]}`,
		"burst 1.5":                  `{"name":"x","topology":{"preset":"two"},"deploy":{},"workload":{},"chaos":[{"at":"1s","kind":"drop-burst","edge":0,"extraDrop":1.5}]}`,
		"negative spike":             `{"name":"x","topology":{"preset":"two"},"deploy":{},"workload":{},"chaos":[{"at":"1s","kind":"latency-spike","edge":0,"extraLatency":"-1s"}]}`,
		"one-node path":              `{"name":"x","topology":{"preset":"two"},"deploy":{},"workload":{"routes":[{"path":[0],"transfers":1}]}}`,
		"zero transfers":             `{"name":"x","topology":{"preset":"two"},"deploy":{},"workload":{"routes":[{"path":[0,1],"transfers":0}]}}`,
		// An edge's traffic is a rate or a total, and an injected total
		// lands in one block.
		"transfers with rate":             `{"name":"x","topology":{"preset":"two"},"deploy":{},"workload":{"rate":1,"transfers":10}}`,
		"inject without transfers":        `{"name":"x","topology":{"preset":"two"},"deploy":{},"workload":{"inject":true}}`,
		"inject over windows":             `{"name":"x","topology":{"preset":"two"},"deploy":{},"workload":{"transfers":10,"windows":2,"inject":true}}`,
		"negative transfers":              `{"name":"x","topology":{"preset":"two"},"deploy":{},"workload":{"transfers":-10}}`,
		"negative workload timeoutBlocks": `{"name":"x","topology":{"preset":"two"},"deploy":{},"workload":{"transfers":10,"timeoutBlocks":-1}}`,
		"negative untilHeight":            `{"name":"x","topology":{"preset":"two"},"deploy":{},"workload":{"rate":1},"untilHeight":-3}`,
	}
	// The removed graph surface is refused by name, not ignored.
	named := map[string]string{
		"topology.chains":                 `"chains"`,
		"topology.edges":                  `"edges"`,
		"workload.edgeRates":              `"edgeRates"`,
		"regions hubspoke:3":              `"hubspoke:3"`,
		"regions uniform:2":               `"uniform:2"`,
		"regions three-region-wan":        `"three-region-wan"`,
		"until with settleBlocks":         "until",
		"transfers with rate":             "transfers",
		"inject without transfers":        "inject",
		"inject over windows":             "inject",
		"negative transfers":              "workload.transfers",
		"negative workload timeoutBlocks": "workload.timeoutBlocks",
		"negative untilHeight":            "untilHeight",
	}
	// The pair is refused naming both fields.
	if _, err := Parse([]byte(cases["until with settleBlocks"])); err == nil || !strings.Contains(err.Error(), "settleBlocks") {
		t.Errorf("until with settleBlocks: error %v does not name settleBlocks", err)
	}
	for name, raw := range cases {
		_, err := Parse([]byte(raw))
		if err == nil {
			t.Errorf("%s: parse accepted %s", name, raw)
			continue
		}
		if want := named[name]; !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not name %s", name, err, want)
		}
	}
}

// TestEventKindsRoundTrip: every chaos kind is a spec kind under its
// String() name and compiles back to itself.
func TestEventKindsRoundTrip(t *testing.T) {
	n := 0
	for k := chaos.Kind(1); !strings.HasPrefix(k.String(), "Kind("); k++ {
		n++
		if got := compileEvent(EventSpec{Kind: k.String()}).Kind; got != k {
			t.Errorf("kind %q compiles to %v, want %v", k.String(), got, k)
		}
	}
	if n != len(eventKinds) || n == 0 {
		t.Errorf("chaos has %d kinds, the spec table %d", n, len(eventKinds))
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
	if got := sc.Chaos[0].Relayer; got != -1 {
		t.Errorf("bare partition relayer = %d, want -1 (whole link)", got)
	}
	if got := sc.Chaos[1].Relayer; got != 1 {
		t.Errorf("explicit partition relayer = %d, want 1", got)
	}
	if got := sc.Chaos[2].Relayer; got != 0 {
		t.Errorf("bare pause relayer = %d, want 0", got)
	}
}
