package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// The figures' execution order is the result-document key order the
// VIRT gate and the store's trend analysis rely on, and help lists the
// built-ins after them; pin both.
func TestRegistryOrderAndShape(t *testing.T) {
	wantNames := []string{
		"tendermint", "fig8", "fig8-lan", "fig9", "fig9-lan",
		"fig12", "fig13", "gas", "topo", "forward",
		"failover", "votescale", "ws",
		"quickstart", "hub", "mesh", "pfmroute", "roundtrip",
		"failover", "plaintimeout", "timeoutstorm", "timeoutproofs",
	}
	cat := Catalogue()
	if len(cat) != len(wantNames) {
		t.Fatalf("catalogue has %d entries, want %d", len(cat), len(wantNames))
	}
	for i, e := range cat {
		if e.Name != wantNames[i] {
			t.Errorf("entry %d: name %q, want %q", i, e.Name, wantNames[i])
		}
		if e.run == nil {
			t.Errorf("entry %q: nil run", e.Name)
		}
		if figure := i < 13; figure != (len(e.Selectors) > 0) || figure != (e.Spec == nil) || figure && e.Short {
			t.Errorf("entry %q: selectors %v, spec %v, short %v: want a figure's selectors or a built-in's spec",
				e.Name, e.Selectors, e.Spec != nil, e.Short)
		}
	}
}

func TestSelect(t *testing.T) {
	names := func(es []Entry) []string {
		out := make([]string, len(es))
		for i, e := range es {
			out[i] = e.Name
		}
		return out
	}
	cases := []struct {
		sel  string
		want []string
	}{
		{"all", []string{"tendermint", "fig8", "fig8-lan", "fig9", "fig9-lan", "fig12", "fig13", "gas", "topo", "forward", "failover", "votescale", "ws"}},
		// The LAN cells ride along with the completion-breakdown
		// figures (10/11), not with the base throughput selectors —
		// the pre-registry driver behaved exactly this way.
		{"fig8", []string{"fig8"}},
		{"fig10", []string{"fig8", "fig8-lan"}},
		{"fig9", []string{"fig9"}},
		{"fig11", []string{"fig9", "fig9-lan"}},
		{"table1", []string{"tendermint"}},
		{"fig6", []string{"tendermint"}},
		{"topo", []string{"topo"}},
	}
	for _, c := range cases {
		got, err := Select(c.sel)
		if err != nil {
			t.Fatalf("Select(%q): %v", c.sel, err)
		}
		if strings.Join(names(got), ",") != strings.Join(c.want, ",") {
			t.Errorf("Select(%q) = %v, want %v", c.sel, names(got), c.want)
		}
	}
	if _, err := Select("quickstart"); err == nil || !strings.Contains(err.Error(), "run -name quickstart") {
		t.Errorf("Select(quickstart): want an error naming `run -name`, got %v", err)
	}
	if _, err := Select("nope"); err == nil {
		t.Fatal("Select(nope): expected an error")
	} else if !strings.Contains(err.Error(), "fig12") {
		t.Errorf("unknown-selector error should list valid values, got: %v", err)
	}
}

func TestSelectorsCoverEveryEntry(t *testing.T) {
	sels := Selectors()
	seen := map[string]bool{}
	for _, s := range sels {
		if seen[s] {
			t.Errorf("selector %q listed twice", s)
		}
		seen[s] = true
	}
	for _, e := range Catalogue() {
		if e.Spec != nil {
			continue
		}
		found := false
		for _, s := range e.Selectors {
			if seen[s] {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("entry %q unreachable from Selectors()", e.Name)
		}
	}
}

// A registry entry must render to the context writer and record under
// its own name — the gas table is the cheapest full driver.
func TestEntryRunRendersAndRecords(t *testing.T) {
	entries, err := Select("gas")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	recorded := map[string]any{}
	ctx := RunContext{
		Seed:   1,
		Out:    &buf,
		Record: func(k string, v any) { recorded[k] = v },
	}
	if err := entries[0].Run(ctx); err != nil {
		t.Fatal(err)
	}
	if _, ok := recorded["gas"]; !ok {
		t.Fatalf("driver did not record under its name; recorded keys: %v", recorded)
	}
	if !strings.Contains(buf.String(), "# Gas per 100-message transaction class") {
		t.Errorf("unexpected render output:\n%s", buf.String())
	}
}
