package funabuse_test

import (
	"errors"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// testOnlyConfigKeep lists the exported config fields in internal/ that no
// non-test code sets but that stay anyway, each with the reason. Keys are
// "pkg.Type.Field".
var testOnlyConfigKeep = map[string]string{
	"cluster.Config.Telemetry": "observability wiring: TestClusterCollectorFamilies and TestGossipRoundHistogramRegistered scrape the fleet through it",
	"runner.Config.Telemetry":  "observability wiring: TestRunTelemetry and TestRunTelemetryCountsErrors scrape the replicate metrics through it",

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
	l := loadRepo(t)
	fields := configFields(l.pkgs)
	set := map[*types.Var]bool{}
	for _, f := range l.files {
		walkFieldWrites(f, l.info, func(v *types.Var, _ ast.Expr, viaParam bool) { set[v] = set[v] || !viaParam }, nil)
	}
	var unset []string
	for v, key := range fields {
		switch _, keep := testOnlyConfigKeep[key]; {
		case set[v] && keep:
			t.Errorf("testOnlyConfigKeep names %s, which non-test code now sets", key)
		case !set[v] && !keep:
			unset = append(unset, key+" ("+l.fset.Position(v.Pos()).String()+")")
		}
	}
	slices.Sort(unset)
	for _, u := range unset {
		t.Errorf("config field set only by tests, or by nothing: %s", u)
	}
	staleRows(t, "testOnlyConfigKeep", testOnlyConfigKeep, fields)
}

func isStruct(t types.Type) bool { _, ok := t.Underlying().(*types.Struct); return ok }

// staleRows reports the rows of keep that name no config field.
func staleRows(t *testing.T, name string, keep map[string]string, fields map[*types.Var]string) {
	declared := slices.Collect(maps.Values(fields))
	for key := range keep {
		if !slices.Contains(declared, key) {
			t.Errorf("%s names %s, which is no longer a config field", name, key)
		}
	}
}

// singleValueKeep lists the exported config fields that every non-test
// write sets to one constant but that stay fields anyway, each with the
// reason. Keys are "pkg.Type.Field".
var singleValueKeep = map[string]string{
	"loadgen.EconModel.RegistrationUSD": "E18 cost sheet: data the ROI ledger prices, not an option",
	"loadgen.EconModel.RequestUSD":      "E18 cost sheet: data the ROI ledger prices, not an option",
	"loadgen.EconModel.BurnUSD":         "E18 cost sheet: data the ROI ledger prices, not an option",
	"loadgen.EconModel.RevenueUSD":      "E18 cost sheet: data the ROI ledger prices, not an option",
	"loadgen.EconModel.BudgetUSD":       "E18 cost sheet: data the ROI ledger prices, not an option",

	"attack.ManualSpinnerConfig.ID": "actor label reports and gateway ledgers look up; SeatSpinnerConfig.ID takes three values",
	"attack.ScraperConfig.ID":       "actor label reports and gateway ledgers look up; SeatSpinnerConfig.ID takes three values",
	"attack.SMSPumperConfig.ID":     "actor label reports and gateway ledgers look up; SeatSpinnerConfig.ID takes three values",
}

// TestNoSingleValueConfigFields fails when every non-test write to an
// exported config field (see TestNoTestOnlyConfigFields for the fields and
// the writes) gives it the same constant, compared as a go/constant value,
// and no non-test composite literal of its struct leaves it out. Such a
// field is an option every caller sets the same way: make it a constant
// and delete the branches only other values reach (an in-package test may
// still set an unexported field), or add it to singleValueKeep with the
// reason it stays.
//
// Unlike there, a constructor's default — a write through a parameter or
// receiver of the enclosing function — is one of the values: a default
// that differs from what the callers pass is a second behaviour the field
// selects. The rule cannot see a field that one literal omits while the
// constructor fills in the callers' constant.
func TestNoSingleValueConfigFields(t *testing.T) {
	l := loadRepo(t)
	fields := configFields(l.pkgs)
	values := map[*types.Var][]constant.Value{}
	varied := map[*types.Var]bool{}
	for _, f := range l.files {
		walkFieldWrites(f, l.info, func(v *types.Var, val ast.Expr, _ bool) {
			if val == nil || l.info.Types[val].Value == nil {
				varied[v] = true
				return
			}
			values[v] = append(values[v], l.info.Types[val].Value)
		}, func(v *types.Var) { varied[v] = true })
	}

	var single []string
	for v, key := range fields {
		vals := values[v]
		one := !varied[v] && len(vals) > 0
		for _, x := range vals {
			one = one && constant.Compare(x, token.EQL, vals[0])
		}
		_, keep := singleValueKeep[key]
		switch {
		case one && !keep:
			single = append(single, key+" = "+vals[0].ExactString()+" ("+l.fset.Position(v.Pos()).String()+")")
		case !one && keep:
			t.Errorf("singleValueKeep names %s, which non-test code sets to more than one value", key)
		}
	}
	slices.Sort(single)
	for _, s := range single {
		t.Errorf("config field every caller sets to one constant: %s", s)
	}
	staleRows(t, "singleValueKeep", singleValueKeep, fields)
}

// TestNoDefaultOnlyConfigs fails when an exported Default* function in
// internal/ returns a struct (or a pointer to one) whose exported fields no
// non-test code writes, apart from that function itself and a function
// writing through its own parameter or receiver (a constructor filling in
// defaults). Such a struct is a set of constants dressed as options: every
// caller takes the defaults, so make them constants and delete the
// function, as TestNoSingleValueConfigFields cannot see a field that one
// literal omits while its constructor fills in the callers' constant.
func TestNoDefaultOnlyConfigs(t *testing.T) {
	l := loadRepo(t)
	structs := map[types.Object]*types.Named{} // the Default functions and the struct each returns
	for path, p := range l.pkgs {
		if p == nil || !strings.HasPrefix(path, module+"/internal/") {
			continue
		}
		for _, name := range p.Scope().Names() {
			fn, ok := p.Scope().Lookup(name).(*types.Func)
			if !ok || !fn.Exported() || !strings.HasPrefix(name, "Default") {
				continue
			}
			for v := range fn.Type().(*types.Signature).Results().Variables() {
				typ := v.Type()
				if p, ok := typ.(*types.Pointer); ok {
					typ = p.Elem()
				}
				if named, ok := typ.(*types.Named); ok && isStruct(named) {
					structs[fn] = named
				}
			}
		}
	}
	written := map[*types.Var]bool{}
	for _, f := range l.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); !ok || structs[l.info.Defs[fd.Name]] == nil {
				walkFieldWrites(d, l.info, func(v *types.Var, _ ast.Expr, viaParam bool) { written[v] = written[v] || !viaParam }, nil)
			}
		}
	}
	var flagged []string
	for fn, named := range structs {
		var exported, set bool
		for v := range named.Underlying().(*types.Struct).Fields() {
			exported, set = exported || v.Exported(), set || v.Exported() && written[v]
		}
		if exported && !set {
			flagged = append(flagged, fn.Pkg().Name()+"."+fn.Name()+" returns "+named.Obj().Pkg().Name()+"."+named.Obj().Name())
		}
	}
	slices.Sort(flagged)
	for _, k := range flagged {
		t.Errorf("no caller writes a field of the struct a Default function returns, so its fields are constants: %s", k)
	}
}

// loadRepo type-checks the non-test files of every package under
// internal/, cmd/, examples/ and bench/ once per test binary; the root
// guards share the result.
func loadRepo(t *testing.T) *configLoader {
	t.Helper()
	l, err := repoOnce()
	if err != nil {
		t.Fatal(err)
	}
	return l
}

var repoOnce = sync.OnceValues(func() (*configLoader, error) {
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
			return nil, err
		}
	}
	return l, errors.Join(l.errs...)
})

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
	names, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	var files []*ast.File
	for _, name := range names {
		if ok, err := build.Default.MatchFile(dir, filepath.Base(name)); err != nil || !ok || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, name, nil, parser.SkipObjectResolution)
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
		for e, ok := t.(interface{ Elem() types.Type }); ok; e, ok = t.(interface{ Elem() types.Type }) {
			t = e.Elem() // through pointers, slices, arrays and maps
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

// walkFieldWrites calls write for every struct field n gives a value (see
// TestNoTestOnlyConfigFields for what counts), with the expression it is
// given, or nil where there is none (an increment, an address-of, an
// assignment from a multi-valued call or through an operator), and
// whether the write goes through a parameter or receiver of the enclosing
// function. When omit is not nil it is called for every exported field a
// keyed composite literal of its struct leaves at the zero value.
func walkFieldWrites(n ast.Node, info *types.Info, write func(v *types.Var, val ast.Expr, viaParam bool), omit func(v *types.Var)) {
	var walk func(n ast.Node, params map[types.Object]bool)
	// target reports the field an assignment or address-of names, and
	// whether the selector chain starts at one of params.
	target := func(e, val ast.Expr, params map[types.Object]bool) {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return
		}
		s := info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return
		}
		base := sel.X
		for done := false; !done; {
			switch x := base.(type) {
			case *ast.SelectorExpr:
				base = x.X
			case *ast.ParenExpr:
				base = x.X
			case *ast.StarExpr:
				base = x.X
			case *ast.IndexExpr:
				base = x.X
			default:
				done = true
			}
		}
		id, ok := base.(*ast.Ident)
		write(s.Obj().(*types.Var), val, ok && params[info.Uses[id]])
	}
	walk = func(n ast.Node, params map[types.Object]bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				sig := info.Defs[x.Name].Type().(*types.Signature)
				inner := map[types.Object]bool{sig.Recv(): true} // a nil receiver matches no use
				for v := range sig.Params().Variables() {
					inner[v] = true
				}
				if x.Body != nil {
					walk(x.Body, inner)
				}
				return false
			case *ast.AssignStmt:
				for i, lhs := range x.Lhs {
					var val ast.Expr
					if (x.Tok == token.ASSIGN || x.Tok == token.DEFINE) && len(x.Lhs) == len(x.Rhs) {
						val = x.Rhs[i]
					}
					target(lhs, val, params)
				}
			case *ast.IncDecStmt:
				target(x.X, nil, params)
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					target(x.X, nil, params)
				}
			case *ast.CompositeLit:
				st, ok := info.TypeOf(x).Underlying().(*types.Struct)
				if !ok {
					return true
				}
				named := map[*types.Var]bool{}
				for i, el := range x.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok { // a struct literal's keys are its fields
						v := info.Uses[kv.Key.(*ast.Ident)].(*types.Var)
						named[v] = true
						write(v, kv.Value, false)
					} else if i < st.NumFields() {
						named[st.Field(i)] = true
						write(st.Field(i), el, false)
					}
				}
				if omit != nil {
					for i := range st.NumFields() {
						if v := st.Field(i); v.Exported() && !named[v] {
							omit(v)
						}
					}
				}
			}
			return true
		})
	}
	walk(n, nil)
}
