package ibcbench_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// orderSensitive lists the packages under internal/ whose output reaches
// a result's bytes; "/..." takes in every package below. Go randomises
// map iteration, so in their code an unsorted map range is a determinism
// bug that a same-seed rerun catches only when the order happens to
// differ and the path happens to run.
var orderSensitive = []string{
	"app", "ibc/...", "relayer", "workload", "eventindex", "chain",
	"tendermint/...", "topo", "scenario", "experiments", "metrics", "obs",
	"geo", "netem", "chaos",
}

// TestMapRangesAreOrderFree is a lint: every range over a map in the
// non-test code of orderSensitive must be one of
//   - marked `// order-free: <why>` on the line above (a sum, a count, a
//     per-entry update, a map-into-map copy);
//   - collect-then-sort: the loop appends to a slice, and a later
//     statement of the same function passes that slice to sort.* or
//     slices.Sort*.
func TestMapRangesAreOrderFree(t *testing.T) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	var offenders []string
	for _, root := range orderSensitive {
		dir := filepath.Join("internal", strings.TrimSuffix(root, "/..."))
		err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
			if err != nil || !e.IsDir() {
				return err
			}
			if path != dir && !strings.HasSuffix(root, "/...") {
				return filepath.SkipDir
			}
			found, err := unsortedMapRanges(fset, imp, path)
			offenders = append(offenders, found...)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range offenders {
		t.Errorf("%s: map range is neither marked `// order-free: <why>` nor collected and sorted", o)
	}
}

// unsortedMapRanges type-checks the non-test package in dir and returns
// the positions of its map ranges that follow neither rule.
func unsortedMapRanges(fset *token.FileSet, imp types.Importer, dir string) ([]string, error) {
	bp, err := build.ImportDir(dir, 0)
	if _, none := err.(*build.NoGoError); none {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: imp}
	if _, err := conf.Check("ibcbench/"+filepath.ToSlash(dir), fset, files, info); err != nil {
		return nil, err
	}
	var out []string
	for _, f := range files {
		marked := map[int]bool{} // lines carrying an order-free mark
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if why, ok := strings.CutPrefix(c.Text, "// order-free:"); ok && strings.TrimSpace(why) != "" {
					marked[fset.Position(c.Slash).Line] = true
				}
			}
		}
		for _, decl := range f.Decls {
			var body *ast.BlockStmt
			if fn, ok := decl.(*ast.FuncDecl); ok {
				body = fn.Body
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if _, isMap := info.TypeOf(rs.X).Underlying().(*types.Map); !isMap {
					return true
				}
				pos := fset.Position(rs.For)
				if !marked[pos.Line-1] && !sortedAfter(info, body, rs) {
					out = append(out, fmt.Sprintf("%s:%d", filepath.ToSlash(pos.Filename), pos.Line))
				}
				return true
			})
		}
	}
	return out, nil
}

// sortedAfter reports whether rs appends to a slice variable that a
// statement of body after the loop passes to sort.* or slices.Sort*.
func sortedAfter(info *types.Info, body *ast.BlockStmt, rs *ast.RangeStmt) bool {
	if body == nil {
		return false
	}
	collected := map[types.Object]bool{}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
			return true
		}
		if obj := identObj(info, as.Lhs[0]); obj != nil && obj == identObj(info, call.Args[0]) {
			collected[obj] = true
		}
		return true
	})
	sorted := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || len(call.Args) == 0 || !collected[identObj(info, call.Args[0])] {
			return !sorted
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := identObj(info, sel.X).(*types.PkgName); ok {
			switch pkg.Imported().Path() {
			case "sort":
				sorted = true
			case "slices":
				sorted = strings.HasPrefix(sel.Sel.Name, "Sort")
			}
		}
		return !sorted
	})
	return sorted
}

func identObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	return info.Uses[id]
}
