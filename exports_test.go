package funabuse_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyKeep lists the exported functions, methods and types in
// internal/ that no non-test code references but that stay anyway, each
// with the reason. Keys are "pkg.Func", "pkg.Type.Method" or "pkg.Type".
var testOnlyKeep = map[string]string{
	"simclock.eventQueue.Less": "heap.Interface method, called through container/heap",
	"simclock.eventQueue.Swap": "heap.Interface method, called through container/heap",
	"simclock.eventQueue.Push": "heap.Interface method, called through container/heap",
	"simclock.eventQueue.Pop":  "heap.Interface method, called through container/heap",

	"obs.ParseText":                "test oracle: every exposition test and FuzzParseText parse /metrics output with it",
	"names.Levenshtein":            "test oracle for DamerauLevenshtein",
	"metrics.Running.N":            "test oracle: the runner tests count timed replicates with it",
	"weblog.FeatureNames":          "test oracle naming the Features vector's columns",
	"simclock.Scheduler.RunFor":    "test helper used by tests of the packages built on the scheduler",
	"simclock.Scheduler.Drain":     "test helper used by tests of the packages built on the scheduler",
	"simclock.Scheduler.Stop":      "ends the Run in progress from inside an event; TestSchedulerStop pins its ErrStopped contract",
	"simclock.Scheduler.Len":       "test oracle: the cancellation tests count live events with it",
	"simclock.Event.At":            "test oracle: TestEventAt reads a scheduled event's instant",
	"simrand.NewZipf":              "test workload: the signal sketch tests and the cluster view model test draw skewed key streams from it",
	"simrand.Zipf.Draw":            "test workload: the signal sketch tests and the cluster view model test draw skewed key streams from it",
	"proxy.Pool.Contains":          "membership oracle: TestPoolLazyMatchesEager holds the lazy pool equal to the eager reference through it",
	"mitigate.BlockList.Unblock":   "test helper: the blocklist tests lift rules by hand",
	"mitigate.BlockList.Blocked":   "string form of BlockedBytes: the blocklist, gate, cluster and loadgen tests probe rules with it",
	"proxy.WithPoolSize":           "TestPoolLazyMatchesEager builds an eager pool with it",
	"booking.System.LiveHolds":     "test oracle for the hold-expiry tests",
	"booking.System.HoldInfo":      "test oracle for the hold-expiry tests",
	"mitigate.DecoySet.Refs":       "test oracle for the decoy tests",
	"workload.Population.OTPs":     "the root BenchmarkWorkloadNewUser reads it",
	"faultinject.Injector.Calls":   "counter the fault-injection tests read",
	"faultinject.Injector.Outages": "counter the fault-injection tests read",
	"metrics.Table.Rows":           "test oracle: TestFig1Shape counts the rendered figure's rows with it",
	"entitygraph.Graph.Lookup":     "test oracle: the reference-twin and syndicate tests compare components key by key through it",

	"cluster.Cluster.FailuresByReason": "fleet health accessor for the planned per-node operator view",
	"cluster.Cluster.NodeDegraded":     "fleet health accessor for the planned per-node operator view",
	"cluster.Cluster.NodeGate":         "fleet health accessor for the planned per-node operator view",
	"account.Store.TierCount":          "account accessor for the planned per-tier operator view",
	"account.Store.Created":            "account accessor for the planned per-tier operator view",
	"account.Store.Promotions":         "account accessor for the planned per-tier operator view",

	"sms.Chain.TerminatorReports": "EXPERIMENTS.md cites it as E10's audit signal",

	"account.Store.Collector":        "obs.Collector adapter: TestCollectorConformance scrapes it, and the operator surface of ROADMAP item 6 registers it",
	"detect.StreamMonitor.Collector": "obs.Collector adapter: TestCollectorConformance scrapes it, and the operator surface of ROADMAP item 6 registers it",
	"entitygraph.Graph.Collector":    "obs.Collector adapter: TestCollectorConformance scrapes it, and the operator surface of ROADMAP item 6 registers it",
	"obs.TraceRing.Collector":        "obs.Collector adapter: TestCollectorConformance scrapes it, and the operator surface of ROADMAP item 6 registers it",
	"resilience.Breaker.Collector":   "obs.Collector adapter: TestCollectorConformance scrapes it, and the operator surface of ROADMAP item 6 registers it",
	"signal.Engine.Collector":        "obs.Collector adapter: TestCollectorConformance scrapes it, and the operator surface of ROADMAP item 6 registers it",

	"signal.CountMin.Add":         sketchReadAPI,
	"signal.CountMin.Depth":       sketchReadAPI,
	"signal.CountMin.ErrorBound":  sketchReadAPI,
	"signal.CountMin.Total":       sketchReadAPI,
	"signal.CountMin.Width":       sketchReadAPI,
	"signal.NewCountMinWithError": sketchReadAPI,
	"signal.Distinct.StdError":    sketchReadAPI,
	"signal.TopK.Count":           sketchReadAPI,
	"signal.Engine.Freq":          sketchReadAPI,
	"signal.Engine.Rate":          sketchReadAPI,
	"signal.Engine.SurgeTotals":   sketchReadAPI,
	"signal.Engine.Surges":        sketchReadAPI,
	"signal.Engine.Sweep":         sketchReadAPI,
	"signal.Engine.Top":           sketchReadAPI,
	"signal.State.Distinct":       sketchReadAPI,
	"signal.State.Freq":           sketchReadAPI,
	"signal.State.Keys":           sketchReadAPI,
	"signal.State.Observed":       sketchReadAPI,
	"signal.State.Surges":         sketchReadAPI,
	"signal.State.Top":            sketchReadAPI,

	"signal.Limiter.Denials":                 "test oracle: the limiter's reference-twin tests compare denial counts through it",
	"signal.SurgeDetector.GlobalIncreasePct": "test oracle: TestTable1Shape holds the streaming global increase equal to the offline Table I figure",
}

// sketchReadAPI is the reason the signal sketches' and engine's read
// accessors stay: the sketch, surge and merge-law tests read them, and
// they go together with the engine's sketch fields that the benchmark
// still pins (ROADMAP item 2).
const sketchReadAPI = "sketch read API the sketch, surge and merge-law tests read; goes with the engine's sketch fields (ROADMAP item 2)"

// TestNoTestOnlyExports fails when an exported top-level function, method
// or type in internal/ has no reference anywhere in the non-test code of
// internal/, cmd/, examples/ or bench/ outside its own declaration (for a
// type, also outside the receivers of its methods). Such a declaration is
// surface only its own tests keep alive: delete it with them, or add it to
// testOnlyKeep with the reason it stays.
//
// References are resolved with go/types, so a same-named identifier
// elsewhere does not hide an unused method. A method counts as used when
// a selection resolves to it (to its generic origin, for a method of an
// instantiated type), or when a method of that name is called through an
// interface: dynamic dispatch may reach any implementation.
func TestNoTestOnlyExports(t *testing.T) {
	l := loadRepo(t)
	type decl struct {
		key        string
		pkg        string
		file       string
		start, end token.Pos
	}
	decls := map[*types.Func]decl{}
	typeDecls := map[types.Object]decl{}
	receivers := map[token.Pos]bool{} // receiver type identifiers
	for _, f := range l.files {
		file := l.fset.Position(f.Pos()).Filename
		if !strings.HasPrefix(filepath.ToSlash(file), "internal/") {
			continue
		}
		for _, dl := range f.Decls {
			if gd, ok := dl.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
				for _, sp := range gd.Specs {
					if ts := sp.(*ast.TypeSpec); ts.Name.IsExported() {
						typeDecls[l.info.Defs[ts.Name]] = decl{key: f.Name.Name + "." + ts.Name.Name, file: file, start: ts.Pos(), end: ts.End()}
					}
				}
			}
			fd, ok := dl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						receivers[id.Pos()] = true
					}
					return true
				})
			}
			if !fd.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "." + fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				key = f.Name.Name + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			decls[l.info.Defs[fd.Name].(*types.Func)] = decl{key: key, pkg: f.Name.Name, file: file, start: fd.Pos(), end: fd.End()}
		}
	}

	refs := map[*types.Func][]token.Pos{}
	viaInterface := map[string]bool{}
	typeUsed := map[types.Object]bool{}
	for id, obj := range l.info.Uses {
		if d, ok := typeDecls[obj]; ok && !receivers[id.Pos()] && (id.Pos() < d.start || id.Pos() >= d.end) {
			typeUsed[obj] = true
		}
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		refs[fn] = append(refs[fn], id.Pos())
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			viaInterface[fn.Name()] = true
		}
	}

	seen := map[string]bool{}
	var unused []string
	for fn, d := range decls {
		seen[d.key] = true
		if _, ok := testOnlyKeep[d.key]; ok {
			continue
		}
		used := fn.Type().(*types.Signature).Recv() != nil && viaInterface[fn.Name()]
		for _, p := range refs[fn] {
			if p < d.start || p >= d.end {
				used = true
				break
			}
		}
		if !used {
			unused = append(unused, d.key+" ("+d.file+")")
		}
	}
	for obj, d := range typeDecls {
		seen[d.key] = true
		if _, ok := testOnlyKeep[d.key]; !ok && !typeUsed[obj] {
			unused = append(unused, d.key+" ("+d.file+")")
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported but referenced only by tests: %s", u)
	}
	for key := range testOnlyKeep {
		if !seen[key] {
			t.Errorf("testOnlyKeep names %s, which is no longer declared", key)
		}
	}
}

// recvName returns the receiver's type name with any pointer and type
// parameters stripped.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
