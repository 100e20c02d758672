package ibcbench_test

import (
	"go/build"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestServeImportsNoSimulator pins what the experiment service is built
// from: it shows what the store holds and runs nothing, so its non-test
// imports, followed transitively, reach only these ibcbench packages.
// A simulator package in this set means `serve` has started executing
// runs again.
func TestServeImportsNoSimulator(t *testing.T) {
	want := []string{
		"ibcbench/internal/metrics",
		"ibcbench/internal/resultdiff",
		"ibcbench/internal/store",
		"ibcbench/internal/tracecheck",
		"ibcbench/internal/traceview",
	}
	seen := map[string]bool{}
	queue := []string{"ibcbench/internal/serve"}
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		bp, err := build.ImportDir(filepath.FromSlash(strings.TrimPrefix(pkg, "ibcbench/")), 0)
		if err != nil {
			t.Fatalf("%s: %v", pkg, err)
		}
		for _, imp := range bp.Imports {
			if strings.HasPrefix(imp, "ibcbench/") && !seen[imp] {
				seen[imp] = true
				queue = append(queue, imp)
			}
		}
	}
	var got []string
	for pkg := range seen {
		got = append(got, pkg)
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("internal/serve imports, transitively:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}
