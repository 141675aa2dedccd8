package funabuse_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// reachKeep lists what TestReachableFromMain finds that stays anyway, each
// with the reader that keeps it. Keys are "pkg.Func", "pkg.Type.Method",
// "pkg.Type", "pkg.Type.Field", and "pkg.Type.*" for every method and field
// of a type (one whose values are read whole, compared with == or encoded
// by reflection, or one that goes whole with a ROADMAP item). A kept
// function or type is a root: what it reaches needs no row.
var reachKeep = map[string]string{
	"account.Snapshot.*":               "reference_test compares whole snapshots with == against its model twin",
	"account.Store.TierCount":          "reference_test holds the per-tier counts equal to its model twin",
	"account.Store.Created":            "reference_test holds the lifetime counters equal to its model twin",
	"account.Store.Promotions":         "reference_test holds the lifetime counters equal to its model twin",
	"cluster.Cluster.NodeGate":         "cluster_test and view_test read a node's gate",
	"cluster.Cluster.FailuresByReason": "view_test holds the per-reason fetch failures equal to its reference; fault_test counts them",
	"cluster.Cluster.NodeDegraded":     "view_test and fault_test check each node's stale flag",
	"cluster.Stats.Observed":           "golden_test holds the 1-node and 4-node observation totals equal",
	"cluster.FaultStats.Fetches":       "fault_test counts the fault plan's evaluations",
	"cluster.FaultStats.Dups":          "fault_test's duplicate-storm test counts re-served snapshots",
	"detect.Verdict.Reason":            "detect_test, graph_test, arm_test and nipdrift_test assert which rule fired",
	"detect.DriftReport.TopBucket":     "nipdrift_test and ExampleNiPDrift read where the shift concentrates",
	"entitygraph.Graph.Lookup":         "reference_test, entitygraph_test and loadgen's syndicate_test compare components key by key",
	"entitygraph.Component.*":          "reference_test compares whole components with == against its model twin",
	"entitygraph.Stats.*":              "reference_test compares whole snapshots with ==; loadgen's target and syndicate tests read Observations",
	"faultinject.Injector.Calls":       "faultinject_test counts the calls the injector evaluates",
	"faultinject.Injector.Outages":     "faultinject_test counts the calls the injector fails",
	"metrics.Running.N":                "the runner tests count timed replicates",
	"metrics.Table.Rows":               "TestFig1Shape counts the rendered figure's rows",
	"mitigate.BlockList.Unblock":       "the blocklist, gate and application tests lift rules by hand",
	"mitigate.BlockList.Blocked":       "string form of BlockedBytes the blocklist, gate, cluster and loadgen tests probe rules with",
	"names.Identity.Email":             "drawn from the seeded RNG by emailFor, so removing it moves every digest; names_test checks its shape",
	"names.Levenshtein":                "names_test and distance_test hold DamerauLevenshtein to it",
	"obs.ParseText":                    "every exposition test and FuzzParseText parse /metrics output with it",
	"obs.Span.*":                       "/debug/traces encodes spans as JSON",
	"proxy.Pool.Contains":              "TestPoolLazyMatchesEager holds the lazy pool equal to the eager reference through it",
	"resilience.Breaker.Transitions":   "httpgate's chaos_test counts a flap's state changes",
	"signal.Engine.TrackedKeys":        "cluster's wire_test and signal's surge_test count per-key state",
	"signal.Limiter.Denials":           "the limiter's reference-twin tests and httpgate's batch_test compare denial counts",
	"simclock.Scheduler.RunFor":        "the tests of the packages built on the scheduler advance it",
	"simclock.Scheduler.Drain":         "clock_test and property_test run the queue dry",
	"simrand.NewZipf":                  "the signal sketch tests and the cluster view model test draw skewed key streams",
	"simrand.Zipf.Draw":                "the signal sketch tests and the cluster view model test draw skewed key streams",
	"sms.Settlement.TerminatorID":      "carriers_test's routing tests check which terminator settled a message",
	"weblog.FeatureNames":              "TestVectorMatchesNames locates the trap_hit column through it",

	"signal.NewCountMinWithError": sketchReadAPI,
	"signal.CountMin.*":           sketchReadAPI,
	"signal.Distinct.StdError":    sketchReadAPI,
	"signal.TopK.*":               sketchReadAPI,
	"signal.State.*":              sketchReadAPI,
	"signal.SurgeDetector.*":      sketchReadAPI,
	"signal.KeySurge.*":           sketchReadAPI,
	"signal.Engine.Rate":          sketchReadAPI,
	"signal.Engine.Freq":          sketchReadAPI,
	"signal.Engine.Top":           sketchReadAPI,
	"signal.Engine.Surges":        sketchReadAPI,
	"signal.Engine.SurgeTotals":   sketchReadAPI,
	"signal.Engine.Sweep":         sketchReadAPI,
}

// sketchReadAPI keeps the sketch read API and the merge family: the
// sketch, surge, merge-law and Table I tests read them, and they go with
// the engine's sketch fields the benchmark still pins (ROADMAP item 2).
const sketchReadAPI = "read by the sketch, surge, merge-law and Table I tests; goes with ROADMAP item 2"

// TestReachableFromMain fails when internal/ declares a function or method
// that no main reaches, an exported type that no reached code names, or a
// struct field that no reached code reads: code its own tests alone keep
// alive. Delete it, or add it to reachKeep with its reader.
func TestReachableFromMain(t *testing.T) {
	l := loadRepo(t)
	pkgs := slices.DeleteFunc(slices.Collect(maps.Values(l.pkgs)), func(p *types.Package) bool { return p == nil })
	found, used := unreached(l.fset, pkgs, l.files, l.info, "internal/", reachKeep)
	for _, key := range slices.Sorted(maps.Keys(found)) { // by package
		t.Errorf("not reached from any main: %s %s", key, found[key])
	}
	for key := range reachKeep {
		if !used[key] {
			t.Errorf("reachKeep names %s, which a main reaches or which is not declared", key)
		}
	}
}

// unreached returns what of the files under dir the roots leave unreached
// and keep does not name, keyed as in reachKeep, each with its "file:line
// (n lines) kind"; and the keep rows that name something unreached. The roots
// are main, init, blank (_) package-level vars — a named var's initializer
// is reached through the var's uses — and methods named like a method of an
// interface in an imported standard-library package (String, Error, Len,
// ServeHTTP, ...: the library calls them). A reached body reaches every
// function it names, called or not, through Origin, and every type and
// constant, which reach what their declarations name; a call through an
// interface method reaches every method of that name. A field is read by
// a reached selector that is not assigned or incremented; &x.f is a read.
func unreached(fset *token.FileSet, pkgs []*types.Package, files []*ast.File, info *types.Info, dir string, keep map[string]string) (found map[string]string, used map[string]bool) {
	std := map[string]bool{"Error": true}
	for _, p := range pkgs {
		for _, imp := range p.Imports() {
			for _, name := range imp.Scope().Names() {
				obj := imp.Scope().Lookup(name)
				it, ok := obj.Type().Underlying().(*types.Interface)
				if _, isType := obj.(*types.TypeName); ok && isType && !slices.Contains(pkgs, imp) {
					for m := range it.Methods() {
						std[m.Name()] = true
					}
				}
			}
		}
	}
	type decl struct{ key, where string }
	decls := map[types.Object]decl{}
	declare := func(obj types.Object, key, kind string, from, to token.Pos) {
		if p := fset.Position(from); strings.HasPrefix(filepath.ToSlash(p.Filename), dir) {
			decls[obj] = decl{key, fmt.Sprintf("%s:%d (%d lines) %s", p.Filename, p.Line, fset.Position(to).Line-p.Line+1, kind)}
		}
	}
	bodies := map[types.Object][]ast.Node{}
	methods := map[string][]types.Object{}
	var queue []ast.Node
	var roots []types.Object
	for _, f := range files {
		pkg := f.Name.Name + "."
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				fn := info.Defs[fd.Name]
				bodies[fn] = []ast.Node{fd.Type, fd.Body}
				key, from := pkg+fd.Name.Name, fd.Pos()
				if fd.Recv != nil {
					methods[fn.Name()] = append(methods[fn.Name()], fn)
					typ := fn.Type().(*types.Signature).Recv().Type()
					if p, ok := typ.(*types.Pointer); ok {
						typ = p.Elem()
					}
					key = pkg + typ.(*types.Named).Obj().Name() + "." + fd.Name.Name
				}
				if fd.Recv != nil && std[fn.Name()] || fd.Recv == nil && (fn.Name() == "main" || fn.Name() == "init") {
					roots = append(roots, fn)
				}
				if fd.Doc != nil {
					from = fd.Doc.Pos()
				}
				declare(fn, key, "func", from, fd.End())
				continue
			}
			for _, s := range d.(*ast.GenDecl).Specs {
				switch s := s.(type) {
				case *ast.ValueSpec:
					for _, name := range s.Names {
						bodies[info.Defs[name]] = []ast.Node{s}
					}
					if d.(*ast.GenDecl).Tok == token.VAR && slices.ContainsFunc(s.Names, func(n *ast.Ident) bool { return n.Name == "_" }) {
						queue = append(queue, s)
					}
				case *ast.TypeSpec:
					tn := info.Defs[s.Name]
					bodies[tn] = []ast.Node{s}
					if s.Name.IsExported() {
						declare(tn, pkg+s.Name.Name, "type", s.Pos(), s.End())
					}
					if st, ok := s.Type.(*ast.StructType); ok {
						for _, fl := range st.Fields.List {
							for _, name := range fl.Names {
								if name.Name != "_" {
									declare(info.Defs[name], pkg+s.Name.Name+"."+name.Name, "field", fl.Pos(), fl.End())
								}
							}
						}
					}
				}
			}
		}
	}

	reached := map[types.Object]bool{} // for a field: read
	var mark func(obj types.Object)
	mark = func(obj types.Object) {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if v, ok := obj.(*types.Var); reached[obj] || ok && v.IsField() {
			return
		}
		reached[obj] = true
		queue = append(queue, bodies[obj]...)
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
			for _, m := range methods[obj.Name()] {
				mark(m)
			}
		}
	}
	drain := func() {
		for len(queue) > 0 {
			n := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			writes := map[ast.Expr]bool{}
			ast.Inspect(n, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.AssignStmt:
					for _, e := range x.Lhs {
						writes[ast.Unparen(e)] = true
					}
				case *ast.IncDecStmt:
					writes[ast.Unparen(x.X)] = true
				case *ast.SelectorExpr:
					if s := info.Selections[x]; s != nil && s.Kind() == types.FieldVal && !writes[x] {
						reached[s.Obj().(*types.Var).Origin()] = true
					}
				case *ast.Ident:
					if obj := info.Uses[x]; obj != nil {
						mark(obj)
					}
				}
				return true
			})
		}
	}
	keptBy := func(key string) string { // the keep row naming key, or ""
		for _, k := range []string{key, key[:strings.LastIndexByte(key, '.')] + ".*"} {
			if _, ok := keep[k]; ok {
				return k
			}
		}
		return ""
	}

	for _, fn := range roots {
		mark(fn)
	}
	drain()
	used = map[string]bool{}
	for obj, d := range decls {
		if k := keptBy(d.key); k != "" && !reached[obj] {
			used[k] = true
			mark(obj)
		}
	}
	drain()
	found = map[string]string{}
	for obj, d := range decls {
		if keptBy(d.key) == "" && !reached[obj] {
			found[d.key] = d.where
		}
	}
	return found, used
}

// TestReachabilityRules runs the pass over a fixture with one case of each
// of its rules: every name but the five it wants is reached.
func TestReachabilityRules(t *testing.T) {
	const src = `package main
import "fmt"
type I interface{ M() }
type T struct{ f, g, h int }                  // g is only assigned
func (T) M() {}                               // called through I only
func (t T) N() int { return t.f }             // taken as a method value
func (T) String() string { return "" }        // a fmt.Stringer method
func (T) dead() { T{}.deadToo() }
func (T) deadToo() {}                         // reached from dead only
type G[X any] struct{ x X }
func (g G[X]) Get() X { return g.x }          // called on G[int]
type Kind int                                 // named by kindA only
type Unused int
const kindA Kind = 1
var _ = initOnly()
func initOnly() string { return fmt.Sprint() } // called by a blank var only
var v = viaUse()
func viaUse() int { return 0 }                // called by v, which main reads
var u = unusedOnly()
func unusedOnly() int { return 0 }            // called by u, which nothing reads
func main() {
	var i I = T{}
	i.M()
	var t T
	t.g = 1
	_, _, _, _, _ = T{}.N, &t.h, G[int]{}.Get(), kindA, v
}`
	l := loadRepo(t)
	f, err := parser.ParseFile(l.fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
	pkg, err := (&types.Config{Importer: l.std}).Check("fixture", l.fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	found, _ := unreached(l.fset, []*types.Package{pkg}, []*ast.File{f}, info, "", nil)
	if got, want := slices.Sorted(maps.Keys(found)), []string{"main.T.dead", "main.T.deadToo", "main.T.g", "main.Unused", "main.unusedOnly"}; !slices.Equal(got, want) {
		t.Fatalf("findings %v, want %v", got, want)
	}
}
