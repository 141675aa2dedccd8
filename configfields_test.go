package funabuse_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyConfigKeep lists the exported config fields in internal/ that no
// non-test code sets but that stay anyway, each with the reason. Keys are
// "pkg.Type.Field".
var testOnlyConfigKeep = map[string]string{
	"cluster.Config.Telemetry": "observability wiring: the cluster tests scrape the fleet's exposition through it, and the planned per-node operator view registers it",
	"runner.Config.Telemetry":  "observability wiring: the runner tests scrape the replicate metrics through it",

	"cluster.FaultConfig.DupRate":   "fault mode of the fault-injecting transport: the duplicate-storm test and the slot-view model test replay lossy gossip through it",
	"cluster.FaultConfig.StaleRate": "fault mode of the fault-injecting transport: the slot-view model test replays lagged reads through it",

	"core.EnvConfig.SMSQuota": "TestQuotaExhaustionLocksOutLegitimateUsers reproduces the paper's Section II-B quota lock-out through it",

	"httpgate.Config.Challenge":           "the CAPTCHA seam of the challenge row, which also owns the reason the missing-fingerprint denial reports under; core's CaptchaGate is the planned verifier behind it",
	"httpgate.ResilienceConfig.Challenge": "fail policy of the challenge hook, caller code that can panic",
	"httpgate.ResilienceConfig.Decision":  "fail policy of the decision journal hook; fail-closed is the audit-mandatory posture DESIGN.md describes",
}

// module is the repository's module path; bench/ is the nested module
// funabuse/bench, which resolves funabuse to this directory.
const module = "funabuse"

// TestNoTestOnlyConfigFields fails when an exported field of a config type
// in internal/ is set by no non-test code in internal/, cmd/, examples/
// or bench/. A field only tests set is an option no caller chooses: make
// it a constant (an in-package test may still lower it through an
// unexported field), delete the behaviour it selects, or add it to
// testOnlyConfigKeep with the reason it stays.
//
// Config types are the exported struct types named *Config and every
// struct type of internal/ an exported field of one holds, directly or
// through pointers, slices, arrays and maps. A field counts as set where
// a composite literal gives it a value, positionally or by key, and where
// an assignment, an increment or an address-of names it — except through
// a parameter or receiver of the enclosing function: a constructor
// filling in defaults on the config it was passed is not a caller
// choosing a value.
func TestNoTestOnlyConfigFields(t *testing.T) {
	// Type-check the standard library's pure-Go variants: they declare the
	// same API and need no C toolchain.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &configLoader{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*types.Package{},
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" || d.Name() == "out" {
				return filepath.SkipDir
			}
			_, err = l.Import(module + "/" + filepath.ToSlash(path))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, err := range l.errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	fields := configFields(l.pkgs)
	set := map[*types.Var]bool{}
	for _, f := range l.files {
		markSetFields(f, l.info, set)
	}

	var unset []string
	for v, key := range fields {
		if set[v] {
			if _, ok := testOnlyConfigKeep[key]; ok {
				t.Errorf("testOnlyConfigKeep names %s, which non-test code now sets", key)
			}
			continue
		}
		if _, ok := testOnlyConfigKeep[key]; !ok {
			unset = append(unset, key+" ("+fset.Position(v.Pos()).String()+")")
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("config field set only by tests, or by nothing: %s", u)
	}
	declared := map[string]bool{}
	for _, key := range fields {
		declared[key] = true
	}
	for key := range testOnlyConfigKeep {
		if !declared[key] {
			t.Errorf("testOnlyConfigKeep names %s, which is no longer a config field", key)
		}
	}
}

// configLoader type-checks the non-test files of this repository's
// packages from source, sharing one types.Info across all of them, and
// imports the standard library from source too.
type configLoader struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	files []*ast.File
	info  *types.Info
	errs  []error
}

// Import implements types.Importer. It returns nil, nil for a directory
// of the module that holds no non-test Go files.
func (l *configLoader) Import(path string) (*types.Package, error) {
	if path != module && !strings.HasPrefix(path, module+"/") {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, module), "/"))
	if dir == "" {
		dir = "."
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		l.pkgs[path] = nil
		return nil, nil
	}
	conf := types.Config{Importer: l, Error: func(err error) { l.errs = append(l.errs, err) }}
	p, _ := conf.Check(path, l.fset, files, l.info)
	l.pkgs[path] = p
	l.files = append(l.files, files...)
	return p, nil
}

// configFields returns every exported field of the config types of
// internal/, keyed to its "pkg.Type.Field" name.
func configFields(pkgs map[string]*types.Package) map[*types.Var]string {
	out := map[*types.Var]string{}
	var visit func(t types.Type)
	visit = func(t types.Type) {
		for {
			switch x := t.(type) {
			case *types.Pointer:
				t = x.Elem()
				continue
			case *types.Slice:
				t = x.Elem()
				continue
			case *types.Array:
				t = x.Elem()
				continue
			case *types.Map:
				t = x.Elem()
				continue
			}
			break
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Pkg() == nil || !strings.HasPrefix(named.Obj().Pkg().Path(), module+"/internal/") {
			return
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			return
		}
		for i := range st.NumFields() {
			f := st.Field(i)
			if !f.Exported() {
				continue
			}
			if _, seen := out[f]; seen {
				return
			}
			out[f] = named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + f.Name()
			visit(f.Type())
		}
	}
	for path, p := range pkgs {
		if p == nil || !strings.HasPrefix(path, module+"/internal/") {
			continue
		}
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() && strings.HasSuffix(name, "Config") {
				visit(tn.Type())
			}
		}
	}
	return out
}

// markSetFields records in set every struct field f gives a value (see
// TestNoTestOnlyConfigFields for what counts).
func markSetFields(f *ast.File, info *types.Info, set map[*types.Var]bool) {
	var walk func(n ast.Node, params map[types.Object]bool)
	// target marks the field an assignment or address-of names, unless
	// the selector chain starts at one of params.
	target := func(e ast.Expr, params map[types.Object]bool) {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return
		}
		s := info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return
		}
		base := sel.X
		for {
			switch x := base.(type) {
			case *ast.SelectorExpr:
				base = x.X
				continue
			case *ast.ParenExpr:
				base = x.X
				continue
			case *ast.StarExpr:
				base = x.X
				continue
			case *ast.IndexExpr:
				base = x.X
				continue
			}
			break
		}
		if id, ok := base.(*ast.Ident); ok && params[info.Uses[id]] {
			return
		}
		set[s.Obj().(*types.Var)] = true
	}
	walk = func(n ast.Node, params map[types.Object]bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				inner := map[types.Object]bool{}
				for _, list := range []*ast.FieldList{x.Recv, x.Type.Params} {
					if list == nil {
						continue
					}
					for _, field := range list.List {
						for _, name := range field.Names {
							inner[info.Defs[name]] = true
						}
					}
				}
				if x.Body != nil {
					walk(x.Body, inner)
				}
				return false
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					target(lhs, params)
				}
			case *ast.IncDecStmt:
				target(x.X, params)
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					target(x.X, params)
				}
			case *ast.CompositeLit:
				tv, ok := info.Types[x]
				if !ok {
					return true
				}
				st, ok := tv.Type.Underlying().(*types.Struct)
				if !ok {
					return true
				}
				for i, el := range x.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							if v, ok := info.Uses[id].(*types.Var); ok {
								set[v] = true
							}
						}
					} else if i < st.NumFields() {
						set[st.Field(i)] = true
					}
				}
			}
			return true
		})
	}
	walk(f, nil)
}
