package ibcbench_test

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
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

// TestInternalTouchesNoHost pins where host concerns live: no non-test
// package under internal/ spawns a process, profiles the host or reads
// the environment, so a result depends only on the experiment it is
// given. Commit lookup and profiling belong to cmd/ibcbench and bench/.
// Nor does one pay for curve cryptography: a run's costs are virtual,
// and valkey signs with a keyed hash.
func TestInternalTouchesNoHost(t *testing.T) {
	banned := map[string]bool{"os/exec": true, "runtime/pprof": true, "net/http/pprof": true, "crypto/ed25519": true}
	fset := token.NewFileSet()
	checked := 0
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		checked++
		osName := ""
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if banned[p] {
				t.Errorf("%s imports %s", path, p)
			}
			if p == "os" {
				osName = "os"
				if imp.Name != nil {
					osName = imp.Name.Name
				}
			}
		}
		if osName == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == osName && (sel.Sel.Name == "Getenv" || sel.Sel.Name == "LookupEnv") {
				t.Errorf("%s: calls os.%s", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no non-test Go files under internal/")
	}
}

// TestSimulatorTakesNoLocks pins the ownership rule stated on
// topo.Deployment: everything a deployment builds belongs to the
// goroutine running its scheduler, so simulator state takes no lock and
// counts nothing atomically. Only state shared across deployments or
// with the HTTP server may import sync: the valkey seed table, the
// result store, and the fan-out that runs whole deployments side by
// side.
func TestSimulatorTakesNoLocks(t *testing.T) {
	allowed := map[string]bool{
		"internal/valkey/valkey.go":     true,
		"internal/store/store.go":       true,
		"internal/scenario/parallel.go": true,
	}
	fset := token.NewFileSet()
	var got []string
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p != "sync" && p != "sync/atomic" {
				continue
			}
			path = filepath.ToSlash(path)
			got = append(got, path)
			if !allowed[path] {
				t.Errorf("%s imports %s: a deployment's state is owned by the goroutine running its scheduler (see topo.Deployment) and takes no lock", path, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for path := range allowed {
		if !slices.Contains(got, path) {
			t.Errorf("%s no longer imports sync: drop it from the allowed set", path)
		}
	}
}
