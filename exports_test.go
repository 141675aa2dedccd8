package funabuse_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyKeep lists the exported functions and methods in internal/ that
// no non-test code calls but that stay anyway, each with the reason. Keys
// are "pkg.Func" or "pkg.Type.Method".
var testOnlyKeep = map[string]string{
	"simclock.eventQueue.Less": "heap.Interface method, called through container/heap",
	"simclock.eventQueue.Swap": "heap.Interface method, called through container/heap",

	"obs.ParseText":                "test oracle: every exposition test and FuzzParseText parse /metrics output with it",
	"names.Levenshtein":            "test oracle for DamerauLevenshtein",
	"metrics.Running.N":            "test oracle: the runner tests count timed replicates with it",
	"weblog.FeatureNames":          "test oracle naming the Features vector's columns",
	"weblog.GraphFeatureNames":     "test oracle naming the GraphFeatures vector's columns",
	"simclock.Scheduler.RunFor":    "test helper used by tests of the packages built on the scheduler",
	"simclock.Scheduler.Drain":     "test helper used by tests of the packages built on the scheduler",
	"mitigate.BlockList.Unblock":   "test helper: the blocklist tests lift rules by hand",
	"proxy.WithPoolSize":           "TestPoolLazyMatchesEager builds an eager pool with it",
	"booking.System.LiveHolds":     "test oracle for the hold-expiry tests",
	"booking.System.HoldInfo":      "test oracle for the hold-expiry tests",
	"mitigate.DecoySet.Refs":       "test oracle for the decoy tests",
	"workload.Population.OTPs":     "the root BenchmarkWorkloadNewUser reads it",
	"faultinject.Injector.Calls":   "counter the fault-injection tests read",
	"faultinject.Injector.Outages": "counter the fault-injection tests read",

	"cluster.Cluster.FailuresByReason": "fleet health accessor for the planned per-node operator view",
	"cluster.Cluster.NodeDegraded":     "fleet health accessor for the planned per-node operator view",
	"cluster.Cluster.NodeGate":         "fleet health accessor for the planned per-node operator view",
	"account.Store.TierCount":          "account accessor for the planned per-tier operator view",
	"account.Store.Created":            "account accessor for the planned per-tier operator view",
	"account.Store.Promotions":         "account accessor for the planned per-tier operator view",

	"sms.Chain.TerminatorReports": "EXPERIMENTS.md cites it as E10's audit signal",
}

// testOnlyKeepPkgs lists whole packages whose exported surface is exempt.
var testOnlyKeepPkgs = map[string]string{
	"signal": "the merge family goes together with the benchmark probe that still calls State.Merge",
}

// TestNoTestOnlyExports fails when an exported top-level function or method
// in internal/ has no reference by name anywhere in the non-test code of
// internal/, cmd/, examples/ or bench/ outside its own declaration. Such a
// function is surface only its own tests keep alive: delete it with them,
// or add it to testOnlyKeep with the reason it stays. The scan is by name,
// so a method counts as used when any call site uses that method name.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct {
		key        string
		pkg        string
		file       string
		start, end token.Pos
	}
	fset := token.NewFileSet()
	var decls []decl
	refs := map[string][]token.Pos{}
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" || d.Name() == "out" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			declNames := map[*ast.Ident]bool{}
			for _, dl := range f.Decls {
				fd, ok := dl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				declNames[fd.Name] = true
				if root != "internal" || !fd.Name.IsExported() {
					continue
				}
				key := f.Name.Name + "." + fd.Name.Name
				if fd.Recv != nil && len(fd.Recv.List) == 1 {
					key = f.Name.Name + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				decls = append(decls, decl{key: key, pkg: f.Name.Name, file: path, start: fd.Pos(), end: fd.End()})
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !declNames[id] {
					refs[id.Name] = append(refs[id.Name], id.Pos())
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	seen := map[string]bool{}
	var unused []string
	for _, d := range decls {
		seen[d.key] = true
		if _, ok := testOnlyKeep[d.key]; ok {
			continue
		}
		if _, ok := testOnlyKeepPkgs[d.pkg]; ok {
			continue
		}
		name := d.key[strings.LastIndexByte(d.key, '.')+1:]
		used := false
		for _, p := range refs[name] {
			if p < d.start || p >= d.end {
				used = true
				break
			}
		}
		if !used {
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
