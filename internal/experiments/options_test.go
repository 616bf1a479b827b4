package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestStudyOptionsHaveWriters: a field of an exported *Options struct is
// an option only while someone sets it (DESIGN.md §10 "Study
// parameters"). Every field must appear as a composite-literal key of
// its struct, or as the target of an assignment outside withDefaults,
// somewhere in this package (tests included), cmd/experiments or the
// root bench_test.go. A parameter nobody sets is a constant: declare it
// beside the run function that reads it.
//
// Types are resolved by syntax alone: a local's type is what its
// declaration shows (a composite literal, a call of a function declared
// here that returns an Options struct, withDefaults on either, a
// parameter). An assignment through anything else — x.Opts.F, the
// result of another package's function — counts for every struct with a
// field of that name.
func TestStudyOptionsHaveWriters(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, pattern := range []string{"*.go", "../../cmd/experiments/*.go", "../../bench_test.go"} {
		paths, err := filepath.Glob(pattern)
		if err != nil || len(paths) == 0 {
			t.Fatalf("no files match %s (%v)", pattern, err)
		}
		for _, path := range paths {
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
	}

	// typeName spells a type expression the way this package would:
	// pointers stripped, the experiments qualifier dropped, any other
	// package's kept (so core.PlanOptions is nobody's struct here).
	var typeName func(e ast.Expr) string
	typeName = func(e ast.Expr) string {
		switch e := e.(type) {
		case *ast.Ident:
			return e.Name
		case *ast.StarExpr:
			return typeName(e.X)
		case *ast.SelectorExpr:
			if pkg, ok := e.X.(*ast.Ident); ok && pkg.Name != "experiments" {
				return pkg.Name + "." + e.Sel.Name
			}
			return e.Sel.Name
		}
		return ""
	}

	// unwritten[struct][field] starts as every field of every exported
	// *Options struct; returns maps this package's functions to the
	// Options struct they return.
	unwritten := map[string]map[string]bool{}
	returns := map[string]string{}
	for _, f := range files {
		if f.Name.Name != "experiments" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || !ts.Name.IsExported() || !strings.HasSuffix(ts.Name.Name, "Options") {
				return true
			}
			if st, ok := ts.Type.(*ast.StructType); ok {
				unwritten[ts.Name.Name] = map[string]bool{}
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						unwritten[ts.Name.Name][name.Name] = true
					}
				}
			}
			return true
		})
	}
	if len(unwritten) == 0 {
		t.Fatal("found no *Options struct")
	}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Type.Results != nil && len(fd.Type.Results.List) == 1 {
				if name := typeName(fd.Type.Results.List[0].Type); unwritten[name] != nil {
					returns[fd.Name.Name] = name
				}
			}
		}
	}

	write := func(owner, field string) {
		if owner != "" {
			delete(unwritten[owner], field)
			return
		}
		for _, fields := range unwritten {
			delete(fields, field)
		}
	}
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Name.Name == "withDefaults" {
				continue
			}
			// locals maps a name to its declared type within this
			// function, latest declaration in source order winning.
			locals := map[string]string{}
			declare := func(fl *ast.FieldList) {
				if fl == nil {
					return
				}
				for _, field := range fl.List {
					for _, name := range field.Names {
						locals[name.Name] = typeName(field.Type)
					}
				}
			}
			declare(fd.Recv)
			declare(fd.Type.Params)
			var typeOf func(e ast.Expr) string
			typeOf = func(e ast.Expr) string {
				switch e := e.(type) {
				case *ast.CompositeLit:
					return typeName(e.Type)
				case *ast.UnaryExpr:
					return typeOf(e.X)
				case *ast.Ident:
					return locals[e.Name]
				case *ast.CallExpr:
					switch fun := e.Fun.(type) {
					case *ast.Ident:
						return returns[fun.Name]
					case *ast.SelectorExpr:
						if fun.Sel.Name == "withDefaults" {
							return typeOf(fun.X)
						}
					}
				}
				return ""
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					declare(n.Type.Params)
				case *ast.ValueSpec:
					for _, name := range n.Names {
						locals[name.Name] = typeName(n.Type)
					}
				case *ast.CompositeLit:
					if name := typeName(n.Type); unwritten[name] != nil {
						for _, el := range n.Elts {
							if kv, ok := el.(*ast.KeyValueExpr); ok {
								write(name, kv.Key.(*ast.Ident).Name)
							}
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						switch lhs := lhs.(type) {
						case *ast.Ident:
							locals[lhs.Name] = ""
							if len(n.Rhs) == len(n.Lhs) {
								locals[lhs.Name] = typeOf(n.Rhs[i])
							}
						case *ast.SelectorExpr:
							write(typeOf(lhs.X), lhs.Sel.Name)
						}
					}
				}
				return true
			})
		}
	}

	var orphans []string
	for owner, fields := range unwritten {
		for field := range fields {
			orphans = append(orphans, owner+"."+field)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("%d option field(s) no flag, study, test or benchmark sets — make each a constant beside its reader:\n  %s",
			len(orphans), strings.Join(orphans, "\n  "))
	}
}
