package resultdiff

import (
	"encoding/json"
	"reflect"
	"testing"
)

func parse(t *testing.T, s string) any {
	t.Helper()
	var doc any
	if err := json.Unmarshal([]byte(s), &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestFlattenPaths(t *testing.T) {
	doc := parse(t, `{"a": {"b": 1.5}, "rows": [{"x": 2}, {"x": 3}], "s": "str", "n": null}`)
	got := Flatten("", doc)
	want := map[string]any{
		"a.b":       1.5,
		"rows[0].x": 2.0,
		"rows[1].x": 3.0,
		"s":         "str",
		"n":         nil,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Flatten = %v, want %v", got, want)
	}
}

func TestConfigHeader(t *testing.T) {
	doc := parse(t, `{"config": {"topology": "hub:3"}, "topo": 1}`)
	if cfg := ConfigHeader(doc); cfg == nil || cfg["topology"] != "hub:3" {
		t.Fatalf("ConfigHeader = %v", cfg)
	}
	if cfg := ConfigHeader(parse(t, `{"topo": 1}`)); cfg != nil {
		t.Fatalf("header-less document yielded %v", cfg)
	}
	if cfg := ConfigHeader(parse(t, `[1, 2]`)); cfg != nil {
		t.Fatalf("non-object document yielded %v", cfg)
	}
}

func TestConfigDiffReportsFields(t *testing.T) {
	oldCfg := ConfigHeader(parse(t, `{"config": {
		"topology": "hub:4", "regions": "", "seed": 42,
		"netem": {"DropRate": 0}
	}}`))
	newCfg := ConfigHeader(parse(t, `{"config": {
		"topology": "hub:6", "regions": "3wan", "seed": 42,
		"netem": {"DropRate": 0.1}, "extra": true
	}}`))
	diffs := ConfigDiff(oldCfg, newCfg)
	var paths []string
	for _, d := range diffs {
		paths = append(paths, d.Path)
	}
	want := []string{"extra", "netem.DropRate", "regions", "topology"}
	if !reflect.DeepEqual(paths, want) {
		t.Fatalf("diff paths = %v, want %v", paths, want)
	}
	// Matching fields (seed) never appear; one-sided fields say which side.
	for _, d := range diffs {
		if d.Path == "seed" {
			t.Fatalf("matching field diffed: %v", d)
		}
		if d.Path == "extra" && d.OnlyIn != "new" {
			t.Fatalf("one-sided field = %+v, want OnlyIn new", d)
		}
	}
	if got := FieldNames(diffs); got != "extra, netem.DropRate, regions, topology" {
		t.Fatalf("FieldNames = %q", got)
	}
}

func TestCompatible(t *testing.T) {
	a := map[string]any{"topology": "hub:3", "seed": 42.0}
	b := map[string]any{"topology": "hub:3", "seed": 42.0}
	c := map[string]any{"topology": "hub:4", "seed": 42.0}
	if !Compatible(a, b) {
		t.Fatal("identical headers incompatible")
	}
	if Compatible(a, c) {
		t.Fatal("differing headers compatible")
	}
	// Header-less documents group only with header-less documents.
	if Compatible(a, nil) || !Compatible(nil, nil) {
		t.Fatal("nil-header compatibility wrong")
	}
}

func TestDropConfig(t *testing.T) {
	flat := Flatten("", parse(t, `{"config": {"seed": 1}, "m": 2}`))
	dropConfig(flat)
	if _, ok := flat["config.seed"]; ok {
		t.Fatalf("config leaf survived: %v", flat)
	}
	if _, ok := flat["m"]; !ok {
		t.Fatalf("metric leaf dropped: %v", flat)
	}
}
