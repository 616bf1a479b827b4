package experiments

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestStudyOptionsHaveWriters: a field of an exported Config or Options
// struct under internal/, or of one of the optionStructs, is an option
// only while someone sets it (DESIGN.md §10 "Study parameters" and
// "Library parameters"). Every
// field must appear as a composite-literal key of its struct, or as the
// target of an assignment, somewhere in the module outside the struct's
// own defaults (withDefaults and the DefaultConfig table it reads). A
// parameter nobody sets is a constant: declare it beside the code that
// reads it. A study option may be set by a test alone; a library
// option needs a program — library code, a study, bench/ or a cmd/ —
// that sets it, and one set only by tests or examples is listed, with
// its reason, in api-allow.txt at the module root. The list is
// checked both ways, like cover-allow.txt: a listed field that a
// program now sets, or that is gone, fails too.
func TestStudyOptionsHaveWriters(t *testing.T) {
	orphans, testOnly, guessed := writerlessFields(parseModule(t), optionStructs...)
	for _, g := range guessed {
		t.Logf("assignment through an unresolved type, counted for every struct with the field: %s", g)
	}
	if len(orphans) > 0 {
		t.Errorf("%d option field(s) no flag, study, library caller, test or benchmark sets — make each a constant beside its reader:\n  %s",
			len(orphans), strings.Join(orphans, "\n  "))
	}
	for _, msg := range checkAllowList(apiAllowList(t), testOnly, false) {
		t.Error(msg)
	}
}

// TestLibraryFunctionsHaveCallers holds functions to the rule options
// keep (DESIGN.md §10 "Library parameters"): an exported function or
// method declared in a non-test file under internal/ stays only while a
// program — library code, a study, bench/, a cmd/, an example or
// p2ppool.go — names it. One only tests name is deleted with its tests,
// or, when tests use it to check other code, listed with that reason in
// api-allow.txt as pkg.Name() or pkg.Type.Name(). The list is checked
// both ways: a listed function that a program now names, or that is
// gone, fails too.
func TestLibraryFunctionsHaveCallers(t *testing.T) {
	for _, msg := range checkAllowList(apiAllowList(t), programlessFuncs(parseModule(t)), true) {
		t.Error(msg)
	}
}

// parseModule parses every .go file of the module, keyed by its
// slash-separated path relative to the module root.
func parseModule(t *testing.T) map[string]*ast.File {
	t.Helper()
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return fs.SkipDir // .git, .bench_build
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		files[filepath.ToSlash(rel)] = f
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// apiAllowList reads api-allow.txt at the module root: each listed
// option field or function, mapped to whether the line gives a reason.
func apiAllowList(t *testing.T) map[string]bool {
	t.Helper()
	text, err := os.ReadFile(filepath.Join("..", "..", "api-allow.txt"))
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{}
	for _, line := range strings.Split(string(text), "\n") {
		name, reason, _ := strings.Cut(strings.TrimSpace(line), " ")
		if name != "" && !strings.HasPrefix(name, "#") {
			allowed[name] = strings.TrimSpace(reason) != ""
		}
	}
	return allowed
}

// checkAllowList compares the functions (names ending in "()") or the
// option fields of an allow list with what only tests use, and returns
// a message for each unlisted name, each listed name that a program now
// uses or that is gone, and each line without a reason.
func checkAllowList(allowed map[string]bool, testOnly []string, funcs bool) []string {
	what, fix := "option", "give it a program that sets it, make it a constant"
	if funcs {
		what, fix = "function", "give it a program that calls it, delete it with its tests"
	}
	var msgs []string
	for _, name := range testOnly {
		if _, ok := allowed[name]; !ok {
			msgs = append(msgs, fmt.Sprintf("no program uses library %s %s: %s, or list it in api-allow.txt with the reason", what, name, fix))
		}
	}
	for name, reasoned := range allowed {
		if strings.HasSuffix(name, "()") != funcs {
			continue
		}
		if !reasoned {
			msgs = append(msgs, fmt.Sprintf("api-allow.txt: %s has no reason", name))
		}
		if !slices.Contains(testOnly, name) {
			msgs = append(msgs, fmt.Sprintf("api-allow.txt lists %s, which a program now uses or which is gone: remove the line", name))
		}
	}
	slices.Sort(msgs)
	return msgs
}

// optionStructs are the option structs under internal/ not named
// *Config or *Options: alm.HelperSet is the planner's.
var optionStructs = []string{"alm.HelperSet"}

// toyModule is a module small enough to read, for the scanners' own
// tests: one case per way a field gets (or fails to get) a writer, or a
// function a caller, and per kind of file either may sit in.
var toyModule = map[string]string{
	"internal/lib/lib.go": `package lib
type Config struct {
	Lit, Assigned, Promoted, ViaAlias, ViaCall, ViaField, InSlice, InTable, ByExample int
	Sub SubConfig
	DefaultedOnly, InDefaultTable, NeverSet int
}
type SubConfig struct{ Deep, NeverSet int }
func (c Config) withDefaults() Config { c.DefaultedOnly = 1; return c }
func DefaultConfig() Config { return Config{InDefaultTable: 1} }
func Default() Config { return Config{} }
type LiveOptions struct {
	Config
	Own int
}
type Holder struct{ cfg Config }
type other struct{ NeverSet int }
func touch(o *other) { o.NeverSet = 1 }
type unexportedStaysOut struct{ X int }
type Knobs struct{ Turned, Idle int }
type Unnamed struct{ Idle int }
func Tooled() {}
func (c Config) String() string { return "" }
func (k *Knobs) Turn() {}
func (k *Knobs) Twist() {}
`,
	"internal/lib/lib_test.go": `package lib
type TestOnlyConfig struct{ X int }
func f(h *Holder) {
	c := Default()
	c.ViaCall = 1
	h.cfg.ViaField = 1
	for _, e := range []Config{{InSlice: 1}} { _ = e }
	for _, tc := range []struct{ cfg Config }{{}} { tc.cfg.InTable = 1 }
	c.Sub.Deep = 1
	new(Knobs).Twist()
}
`,
	"mod.go": `package mod
import "mod/internal/lib"
type Options = lib.Config
`,
	"cmd/tool/main.go": `package main
import (
	"mod"
	l "mod/internal/lib"
)
func main() {
	a := l.Config{Lit: 1}
	a.Assigned = 2
	var live l.LiveOptions
	live.Promoted = 3
	live.Own = 4
	_ = mod.Options{ViaAlias: 5}
	_ = l.Knobs{Turned: 6}
	l.Tooled()
	var k l.Knobs
	k.Turn()
}
`,
	"examples/demo/main.go": `package main
import "mod/internal/lib"
func main() { _ = lib.Config{ByExample: 1} }
`,
	"internal/experiments/study.go": `package experiments
type StudyOptions struct{ Cells int }
`,
	"internal/experiments/study_test.go": `package experiments
var small = StudyOptions{Cells: 2}
`,
}

// parseToyModule parses toyModule.
func parseToyModule(t *testing.T) map[string]*ast.File {
	t.Helper()
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	for path, text := range toyModule {
		f, err := parser.ParseFile(fset, path, text, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files[path] = f
	}
	return files
}

// TestWriterScanner runs the option scanner over toyModule: the library
// fields only lib_test.go and the example set are test-only, the study
// option only a test sets is not. A struct the call names (lib.Knobs)
// is on trial like a Config; one it does not name (lib.Unnamed) is not.
func TestWriterScanner(t *testing.T) {
	orphans, testOnly, guessed := writerlessFields(parseToyModule(t), "lib.Knobs")
	want := []string{"lib.Config.DefaultedOnly", "lib.Config.InDefaultTable", "lib.Config.NeverSet", "lib.Knobs.Idle", "lib.SubConfig.NeverSet"}
	if !slices.Equal(orphans, want) || len(guessed) != 0 {
		t.Errorf("writer-less fields %v (guessed %v), want %v and no guess", orphans, guessed, want)
	}
	wantTestOnly := []string{"lib.Config.ByExample", "lib.Config.InSlice", "lib.Config.InTable", "lib.Config.Sub",
		"lib.Config.ViaCall", "lib.Config.ViaField", "lib.SubConfig.Deep"}
	if !slices.Equal(testOnly, wantTestOnly) {
		t.Errorf("test-only fields %v, want %v", testOnly, wantTestOnly)
	}
}

// TestCallerScanner runs the function scanner and the allow-list check
// over toyModule: lib.Default, which only lib_test.go calls, and the
// method lib.Knobs.Twist are flagged, like lib.DefaultConfig, which
// nothing calls; lib.Tooled and lib.Knobs.Turn, called from a cmd/, are
// not, nor is the String method nobody names. An allow list naming
// lib.Tooled fails the check, and so does one leaving out lib.Knobs.Twist.
func TestCallerScanner(t *testing.T) {
	got := programlessFuncs(parseToyModule(t))
	want := []string{"lib.Default()", "lib.DefaultConfig()", "lib.Knobs.Twist()"}
	if !slices.Equal(got, want) {
		t.Errorf("program-less functions %v, want %v", got, want)
	}
	allowed := map[string]bool{"lib.Default()": true, "lib.DefaultConfig()": true, "lib.Tooled()": true, "lib.Config.ByExample": true}
	msgs := checkAllowList(allowed, got, true)
	if len(msgs) != 2 || !strings.Contains(msgs[0], "lists lib.Tooled()") || !strings.Contains(msgs[1], "lib.Knobs.Twist()") {
		t.Errorf("allow-list check says %q, want one line for the listed lib.Tooled() and one for the unlisted lib.Knobs.Twist()", msgs)
	}
}

// writerlessFields returns, sorted, every pkg.Struct.Field of an
// exported struct named *Config or *Options, or named in named (as
// pkg.Struct), declared in a non-test file under internal/, that no
// file sets outside a function named
// withDefaults or DefaultConfig (orphans); and every field of such a
// struct outside internal/experiments that some file sets, but only a
// test or an example (testOnly).
// files maps a slash-separated path relative to the module root to its
// syntax.
//
// Types are resolved by syntax alone, a package being known by its name
// (the last element of its import path): a local's type is what its
// declaration shows — a composite literal, a parameter, a call of a
// function or method declared in the module, a field of a struct
// declared in the module, an element of a slice or map of those — with
// type aliases followed and embedded structs' fields promoted. An
// assignment whose target cannot be typed that way counts for every
// struct with a field of that name, and is reported in guessed.
func writerlessFields(files map[string]*ast.File, named ...string) (orphans, testOnly, guessed []string) {
	// source is one file with its package's key — the package name, or
	// the directory for the main packages, which nobody imports and
	// which would otherwise share one key — and its imports, local name
	// to package key.
	type source struct {
		path, pkg string
		f         *ast.File
		imports   map[string]string
	}
	var sources []source
	for path, f := range files {
		src := source{path: path, pkg: f.Name.Name, f: f, imports: fileImports(f)}
		if src.pkg == "main" {
			src.pkg = filepath.ToSlash(filepath.Dir(path))
		}
		sources = append(sources, src)
	}
	slices.SortFunc(sources, func(a, b source) int { return strings.Compare(a.path, b.path) })
	// fields holds every struct's fields and their types, the embedded
	// ones under "" joined by spaces; unwritten the fields on trial, and
	// unprogrammed those of library structs that no program sets.
	fields := map[string]map[string]string{}
	unwritten := map[string]map[string]bool{}
	unprogrammed := map[string]map[string]bool{}
	alias := map[string]string{}
	// typeName spells a type expression as pkg.Name, "[]"+element for a
	// slice, array, map or variadic parameter, "func()"+result for a
	// function of one result, "" for anything else. A struct type
	// written in place is declared under a name made of its position.
	var typeName func(pkg string, imports map[string]string, e ast.Expr) string
	declareStruct := func(key, pkg string, imports map[string]string, st *ast.StructType, onTrial, library bool) {
		fields[key] = map[string]string{}
		if onTrial {
			unwritten[key] = map[string]bool{}
		}
		if library {
			unprogrammed[key] = map[string]bool{}
		}
		for _, field := range st.Fields.List {
			typ := typeName(pkg, imports, field.Type)
			if len(field.Names) == 0 {
				fields[key][""] += typ + " "
			}
			for _, name := range field.Names {
				fields[key][name.Name] = typ
				if onTrial {
					unwritten[key][name.Name] = true
				}
				if library {
					unprogrammed[key][name.Name] = true
				}
			}
		}
	}
	typeName = func(pkg string, imports map[string]string, e ast.Expr) string {
		name := ""
		switch e := e.(type) {
		case *ast.StructType:
			name = fmt.Sprintf("struct@%d", e.Pos())
			if fields[name] == nil {
				declareStruct(name, pkg, imports, e, false, false)
			}
			return name
		case *ast.Ident:
			name = pkg + "." + e.Name
		case *ast.StarExpr:
			return typeName(pkg, imports, e.X)
		case *ast.SelectorExpr:
			if x, ok := e.X.(*ast.Ident); ok && imports[x.Name] != "" {
				name = imports[x.Name] + "." + e.Sel.Name
			}
		case *ast.ArrayType:
			return "[]" + typeName(pkg, imports, e.Elt)
		case *ast.MapType:
			return "[]" + typeName(pkg, imports, e.Value)
		case *ast.Ellipsis:
			return "[]" + typeName(pkg, imports, e.Elt)
		case *ast.FuncType:
			if e.Results != nil && len(e.Results.List) == 1 && len(e.Results.List[0].Names) <= 1 {
				return "func()" + typeName(pkg, imports, e.Results.List[0].Type)
			}
		}
		for alias[name] != "" {
			name = alias[name]
		}
		return name
	}

	// Pass 1: every named struct, every alias, and which fields are on
	// trial.
	for _, src := range sources {
		path, f, pkg, imports := src.path, src.f, src.pkg, src.imports
		onTrial := strings.HasPrefix(path, "internal/") && !strings.HasSuffix(path, "_test.go")
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			key := pkg + "." + ts.Name.Name
			if ts.Assign.IsValid() {
				alias[key] = typeName(pkg, imports, ts.Type)
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			onTrial := onTrial && ts.Name.IsExported() &&
				(strings.HasSuffix(ts.Name.Name, "Config") || strings.HasSuffix(ts.Name.Name, "Options") || slices.Contains(named, key))
			declareStruct(key, pkg, imports, st, onTrial, onTrial && !strings.HasPrefix(path, "internal/experiments/"))
			return true
		})
	}
	// findField returns the struct that declares the field a selector on
	// struct typ reaches — typ itself or a struct it embeds — and the
	// field's type.
	var findField func(typ, name string) (owner, fieldType string, ok bool)
	findField = func(typ, name string) (string, string, bool) {
		if ft, ok := fields[typ][name]; ok && name != "" {
			return typ, ft, true
		}
		for _, emb := range strings.Fields(fields[typ][""]) {
			if emb[strings.LastIndex(emb, ".")+1:] == name {
				return typ, emb, true
			}
			if owner, ft, ok := findField(emb, name); ok {
				return owner, ft, true
			}
		}
		return "", "", false
	}

	// Pass 2: what each function and method of the module returns.
	results := map[string][]string{}
	for _, src := range sources {
		pkg, imports := src.pkg, src.imports
		for _, d := range src.f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Type.Results == nil {
				continue
			}
			var out []string
			for _, res := range fd.Type.Results.List {
				for i := 0; i < max(1, len(res.Names)); i++ {
					out = append(out, typeName(pkg, imports, res.Type))
				}
			}
			key := pkg
			if fd.Recv != nil {
				key = typeName(pkg, imports, fd.Recv.List[0].Type)
			}
			results[key+"."+fd.Name.Name] = out
		}
	}

	// Pass 3: the writes.
	for _, src := range sources {
		path, f, pkg, imports := src.path, src.f, src.pkg, src.imports
		program := !strings.HasSuffix(path, "_test.go") && !strings.HasPrefix(path, "examples/")
		// write records a write of field through a value of type owner.
		write := func(owner, field string) {
			if fields[owner] != nil {
				if o, _, ok := findField(owner, field); ok {
					delete(unwritten[o], field)
					if program {
						delete(unprogrammed[o], field)
					}
				}
				return
			}
			for key, fs := range unwritten {
				if fs[field] || program && unprogrammed[key][field] {
					delete(fs, field)
					if program {
						delete(unprogrammed[key], field)
					}
					guessed = append(guessed, path+": "+key+"."+field)
				}
			}
		}
		for _, d := range f.Decls {
			fd, isFunc := d.(*ast.FuncDecl)
			if isFunc && (fd.Body == nil || fd.Name.Name == "withDefaults" || fd.Name.Name == "DefaultConfig") {
				continue
			}
			// locals maps a name to its declared type within this
			// declaration, latest in source order winning; litType holds
			// the type a composite literal takes from the slice or map
			// literal around it.
			locals := map[string]string{}
			litType := map[*ast.CompositeLit]string{}
			declare := func(fl *ast.FieldList) {
				if fl == nil {
					return
				}
				for _, field := range fl.List {
					for _, name := range field.Names {
						locals[name.Name] = typeName(pkg, imports, field.Type)
					}
				}
			}
			if isFunc {
				declare(fd.Recv)
				declare(fd.Type.Params)
				declare(fd.Type.Results)
			}
			// typesOf is the type of each value e yields: one, or a
			// call's several results.
			var typesOf func(e ast.Expr) []string
			typeOf := func(e ast.Expr) string {
				if ts := typesOf(e); len(ts) > 0 {
					return ts[0]
				}
				return ""
			}
			typesOf = func(e ast.Expr) []string {
				switch e := e.(type) {
				case *ast.CompositeLit:
					if e.Type == nil {
						return []string{litType[e]}
					}
					return []string{typeName(pkg, imports, e.Type)}
				case *ast.FuncLit:
					return []string{typeName(pkg, imports, e.Type)}
				case *ast.UnaryExpr:
					return typesOf(e.X)
				case *ast.StarExpr:
					return typesOf(e.X)
				case *ast.ParenExpr:
					return typesOf(e.X)
				case *ast.Ident:
					return []string{locals[e.Name]}
				case *ast.IndexExpr:
					return []string{strings.TrimPrefix(typeOf(e.X), "[]")}
				case *ast.SelectorExpr:
					_, ft, _ := findField(typeOf(e.X), e.Sel.Name)
					return []string{ft}
				case *ast.CallExpr:
					switch fun := e.Fun.(type) {
					case *ast.Ident:
						if res, ok := strings.CutPrefix(locals[fun.Name], "func()"); ok {
							return []string{res}
						}
						return results[pkg+"."+fun.Name]
					case *ast.SelectorExpr:
						if x, ok := fun.X.(*ast.Ident); ok && locals[x.Name] == "" && imports[x.Name] != "" {
							return results[imports[x.Name]+"."+fun.Sel.Name]
						}
						return results[typeOf(fun.X)+"."+fun.Sel.Name]
					}
				}
				return nil
			}
			define := func(lhs []ast.Expr, rhs []ast.Expr) {
				var types []string
				if len(rhs) == 1 {
					types = typesOf(rhs[0])
				} else {
					for _, r := range rhs {
						types = append(types, typeOf(r))
					}
				}
				for i, l := range lhs {
					if id, ok := l.(*ast.Ident); ok {
						locals[id.Name] = ""
						if i < len(types) {
							locals[id.Name] = types[i]
						}
					}
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					declare(n.Type.Params)
				case *ast.ValueSpec:
					if n.Type != nil {
						for _, name := range n.Names {
							locals[name.Name] = typeName(pkg, imports, n.Type)
						}
					} else {
						lhs := make([]ast.Expr, len(n.Names))
						for i, name := range n.Names {
							lhs[i] = name
						}
						define(lhs, n.Values)
					}
				case *ast.RangeStmt:
					if n.Tok == token.DEFINE && n.Value != nil {
						if id, ok := n.Value.(*ast.Ident); ok {
							locals[id.Name] = strings.TrimPrefix(typeOf(n.X), "[]")
						}
					}
				case *ast.CompositeLit:
					typ := typeOf(n)
					elem, isList := strings.CutPrefix(typ, "[]")
					for _, el := range n.Elts {
						kv, keyed := el.(*ast.KeyValueExpr)
						if keyed {
							el = kv.Value
						}
						if u, ok := el.(*ast.UnaryExpr); ok {
							el = u.X
						}
						if inner, ok := el.(*ast.CompositeLit); ok && inner.Type == nil && isList {
							litType[inner] = elem
						}
						if keyed {
							el = kv.Key
						}
						if key, ok := el.(*ast.Ident); keyed && ok && fields[typ] != nil {
							write(typ, key.Name)
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						// x.A[i].B = v sets B and changes A: both are written.
						for lhs != nil {
							switch e := lhs.(type) {
							case *ast.SelectorExpr:
								x, isIdent := e.X.(*ast.Ident)
								if !isIdent || locals[x.Name] != "" || imports[x.Name] == "" { // not another package's variable
									write(typeOf(e.X), e.Sel.Name)
								}
								lhs = e.X
							case *ast.IndexExpr:
								lhs = e.X
							case *ast.StarExpr:
								lhs = e.X
							case *ast.ParenExpr:
								lhs = e.X
							default:
								lhs = nil
							}
						}
					}
					if n.Tok == token.DEFINE {
						define(n.Lhs, n.Rhs)
					}
				}
				return true
			})
		}
	}

	for owner, fs := range unprogrammed {
		for field := range fs {
			if !unwritten[owner][field] {
				testOnly = append(testOnly, owner+"."+field)
			}
		}
	}
	for owner, fs := range unwritten {
		for field := range fs {
			orphans = append(orphans, owner+"."+field)
		}
	}
	slices.Sort(orphans)
	slices.Sort(testOnly)
	slices.Sort(guessed)
	return orphans, testOnly, guessed
}

// fileImports maps each local name f imports a package under to the
// package's name, the last element of its import path.
func fileImports(f *ast.File) map[string]string {
	imports := map[string]string{}
	for _, spec := range f.Imports {
		imported := strings.Trim(spec.Path.Value, `"`)
		name := imported[strings.LastIndex(imported, "/")+1:]
		if spec.Name != nil {
			imports[spec.Name.Name] = name
		} else {
			imports[name] = name
		}
	}
	return imports
}

// exemptMethods are the methods the standard library calls through an
// interface — fmt's Stringer, the error interface, encoding/json's
// Marshaler — so a program calls them without naming them.
var exemptMethods = []string{"String", "Error", "MarshalJSON"}

// programlessFuncs returns, sorted, every exported function or method
// declared in a non-test file under internal/, as pkg.Name() or
// pkg.Type.Name(), that no non-test file of the module names, outside
// the exemptMethods. files maps a slash-separated path relative to the
// module root to its syntax.
//
// Names are matched by syntax alone, a package being known by its name
// (the last element of its import path): pkg.Name or, inside pkg, a
// bare Name names a function; any selector .Name names every method so
// called. So a dead method that shares its name with a live one, or
// with a field, goes unseen, but a live one is never reported.
func programlessFuncs(files map[string]*ast.File) []string {
	declared := map[string]string{} // each key to its method's name, "" for a function
	named := map[string]bool{}      // pkg.Name() of functions
	methods := map[string]bool{}    // Name of methods
	for path, f := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		pkg, imports := f.Name.Name, fileImports(f)
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				methods[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					named[imports[x.Name]+"."+n.Sel.Name+"()"] = true
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				named[pkg+"."+n.Name+"()"] = true
			}
			return true
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				ast.Inspect(d, visit)
				continue
			}
			// The declaration's own name does not name it.
			if fd.Recv != nil {
				ast.Inspect(fd.Recv, visit)
			}
			ast.Inspect(fd.Type, visit)
			if fd.Body != nil {
				ast.Inspect(fd.Body, visit)
			}
			if !strings.HasPrefix(path, "internal/") || !fd.Name.IsExported() {
				continue
			}
			if fd.Recv == nil {
				declared[pkg+"."+fd.Name.Name+"()"] = ""
				continue
			}
			if slices.Contains(exemptMethods, fd.Name.Name) {
				continue
			}
			recv := fd.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			switch r := recv.(type) {
			case *ast.IndexExpr:
				recv = r.X
			case *ast.IndexListExpr:
				recv = r.X
			}
			declared[pkg+"."+recv.(*ast.Ident).Name+"."+fd.Name.Name+"()"] = fd.Name.Name
		}
	}
	var out []string
	for key, method := range declared {
		if method == "" && !named[key] || method != "" && !methods[method] {
			out = append(out, key)
		}
	}
	slices.Sort(out)
	return out
}
