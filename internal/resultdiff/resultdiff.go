// Package resultdiff holds the JSON result-document comparison shared
// by the CLI's `diff` command, the service's /api/diff and the
// experiment store: flattening a document into dotted metric paths,
// diffing two documents metric by metric, and diffing their config
// headers field by field. All consumers need the same semantics — a run
// archived by the store must group with exactly the runs `diff` would
// have compared gate-armed — so the logic lives here once.
package resultdiff

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Flatten walks a JSON document (the `any` shapes json.Unmarshal
// produces) into dotted leaf paths: maps become "a.b", arrays "a[0]".
// Leaves are numbers, strings, bools and nulls.
func Flatten(prefix string, v any) map[string]any {
	out := make(map[string]any)
	switch t := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(t))
		for k := range t {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			for kk, vv := range Flatten(p, t[k]) {
				out[kk] = vv
			}
		}
	case []any:
		for i, e := range t {
			for kk, vv := range Flatten(fmt.Sprintf("%s[%d]", prefix, i), e) {
				out[kk] = vv
			}
		}
	default:
		out[prefix] = v
	}
	return out
}

// ConfigHeader extracts a result document's "config" header (nil when
// the document is not an object or carries none — pre-header results).
func ConfigHeader(doc any) map[string]any {
	m, ok := doc.(map[string]any)
	if !ok {
		return nil
	}
	cfg, ok := m["config"].(map[string]any)
	if !ok {
		return nil
	}
	return cfg
}

// dropConfig removes the config header's flattened leaves from a metric
// map, so config-only differences don't inflate the changed-metric
// count regression gates key on.
func dropConfig(flat map[string]any) {
	for path := range flat {
		if path == "config" || strings.HasPrefix(path, "config.") {
			delete(flat, path)
		}
	}
}

// Row is one metric that differs between two documents: present on both
// sides with different values, or on one side only (the other value nil).
type Row struct {
	Path     string
	Old, New any
	// DeltaPct is set only for numeric pairs with a nonzero old.
	DeltaPct *float64
}

// Diff is the metric-by-metric comparison of two result documents, each
// list sorted by path. The config headers are left out: ConfigDiff
// compares those, and their differences are not metric changes.
type Diff struct {
	Changed, Added, Removed []Row
	Unchanged               int
}

// Metrics compares every flattened leaf of two documents.
func Metrics(oldDoc, newDoc any) Diff {
	oldFlat, newFlat := Flatten("", oldDoc), Flatten("", newDoc)
	dropConfig(oldFlat)
	dropConfig(newFlat)
	var d Diff
	for path, ov := range oldFlat {
		if _, ok := newFlat[path]; !ok {
			d.Removed = append(d.Removed, Row{Path: path, Old: ov})
		}
	}
	for path, nv := range newFlat {
		ov, ok := oldFlat[path]
		switch {
		case !ok:
			d.Added = append(d.Added, Row{Path: path, New: nv})
		case ov == nv:
			d.Unchanged++
		default:
			row := Row{Path: path, Old: ov, New: nv}
			on, oldNum := ov.(float64)
			nn, newNum := nv.(float64)
			if oldNum && newNum && on != 0 {
				pct := 100 * (nn - on) / math.Abs(on)
				row.DeltaPct = &pct
			}
			d.Changed = append(d.Changed, row)
		}
	}
	for _, rows := range [][]Row{d.Changed, d.Added, d.Removed} {
		sort.Slice(rows, func(i, j int) bool { return rows[i].Path < rows[j].Path })
	}
	return d
}

// FieldDiff is one config-header field that differs between two
// documents. Path is the flattened field path relative to the header
// ("topology", "netem.DropRate"). OnlyIn is "old"/"new" when the field
// exists on one side only; otherwise Old and New carry both values.
type FieldDiff struct {
	Path     string
	Old, New any
	OnlyIn   string
}

// String renders the difference the way `ibcbench diff` prints it.
func (d FieldDiff) String() string {
	if d.OnlyIn != "" {
		return fmt.Sprintf("%s: only in %s", d.Path, d.OnlyIn)
	}
	return fmt.Sprintf("%s: %v -> %v", d.Path, d.Old, d.New)
}

// ConfigDiff compares two config headers field by field (flattening
// nested sections such as the netem config) and returns every
// difference sorted by path. Nil headers yield nil: documents without a
// header are compared silently, never flagged incompatible.
func ConfigDiff(oldCfg, newCfg map[string]any) []FieldDiff {
	if oldCfg == nil || newCfg == nil {
		return nil
	}
	oldFlat := Flatten("", oldCfg)
	newFlat := Flatten("", newCfg)
	var diffs []FieldDiff
	for path, ov := range oldFlat {
		if nv, ok := newFlat[path]; ok {
			if ov != nv {
				diffs = append(diffs, FieldDiff{Path: path, Old: ov, New: nv})
			}
		} else {
			diffs = append(diffs, FieldDiff{Path: path, OnlyIn: "old"})
		}
	}
	for path := range newFlat {
		if _, ok := oldFlat[path]; !ok {
			diffs = append(diffs, FieldDiff{Path: path, OnlyIn: "new"})
		}
	}
	sort.Slice(diffs, func(i, j int) bool { return diffs[i].Path < diffs[j].Path })
	return diffs
}

// Compatible reports whether two config headers agree on every field —
// the store's grouping predicate for trend windows and the rolling
// regression gate, matching the condition under which `diff
// -fail-on-change` stays armed.
func Compatible(a, b map[string]any) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return len(ConfigDiff(a, b)) == 0
}

// FieldNames joins the differing fields' paths into the compact comma
// list used by warning lines ("topology, regions, seed").
func FieldNames(diffs []FieldDiff) string {
	names := make([]string, len(diffs))
	for i, d := range diffs {
		names[i] = d.Path
	}
	return strings.Join(names, ", ")
}
