package loadgen

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"funabuse/internal/account"
	"funabuse/internal/entitygraph"
	"funabuse/internal/httpgate"
	"funabuse/internal/simclock"
)

// TestTargetGateChurnAllocAndHeapBound is the memory budget proved under
// the attack it models: a million identities, each seen once — fresh
// fingerprint, address and session on every request, the paper's rotating
// attacker — through the whole NewTargetGate stack with 4,096-slot budgets.
// The bounded stores must stay inside their budgets, a decision in steady
// state must allocate no more than the keys the stack has to retain (the
// graph's two node keys and the limiter keys: under 150 B), and what
// survives a collection at the end must fit a ceiling that does not depend
// on how many identities went by.
func TestTargetGateChurnAllocAndHeapBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	const (
		budget        = 4096
		batch         = 8192
		bytesPerOp    = 150
		heapCeiling   = 3 << 20 // measured 1.84 MiB at 100k and at 1M: stores, gate and one batch of inputs
		warmupBatches = 4       // slabs, scratch and maps reach their final size
	)
	identities := 1_000_000
	if testing.Short() {
		identities = 100_000
	}

	clock := simclock.NewManual(t0)
	graph := entitygraph.New(entitygraph.Config{MaxNodes: budget})
	accounts := account.NewStore(account.Config{MaxAccounts: budget})
	// The limiters keyed by path and booking reference are on. The two keyed
	// by identity (ProfileLimit, AccountBaseLimit) are off: a signal.Limiter
	// bounds its keys by window, not by budget, and under pure rotation each
	// would add a ~450 B ring per identity of which its free list recycles a
	// quarter — signal's budget, not the stores'.
	gate, _, _ := NewTargetGate(TargetConfig{
		Clock:               clock,
		Accounts:            accounts,
		AccountRestricted:   map[string]int{PathSeatMap: int(account.Member)},
		AccountBookingPaths: []string{PathHold},
		EntityGraph:         graph,
		EntityPaths:         []string{PathHold},
		EntityWeak:          0.5,
		PathLimit:           1 << 30,
		PathWindow:          10 * time.Second,
		ResourceLimit:       1 << 30,
		ResourceWindow:      time.Minute,
	})
	r := httptest.NewRequest(http.MethodGet, PathHold+"?pnr=PNR00001", nil)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	baseline := before.HeapAlloc

	infos := make([]httpgate.ClientInfo, batch)
	var steadyBytes, steadyOps uint64
	for done, round := 0, 0; done < identities; done, round = done+batch, round+1 {
		// The inputs are the caller's; only the decisions are measured.
		for i := range infos {
			id := done + i
			infos[i] = httpgate.ClientInfo{
				IP:             fmt.Sprintf("10.%d.%d.%d", id>>16&255, id>>8&255, id&255),
				Fingerprint:    uint64(id+1) * 0x9e3779b97f4a7c15,
				HasFingerprint: true,
				ClientKey:      fmt.Sprintf("session-%07d", id),
			}
		}
		runtime.ReadMemStats(&before)
		for i := range infos {
			clock.Advance(time.Millisecond)
			gate.Decide(r, infos[i])
		}
		runtime.ReadMemStats(&after)
		if round >= warmupBatches {
			steadyBytes += after.TotalAlloc - before.TotalAlloc
			steadyOps += batch
		}

		if n := accounts.Len(); n > budget {
			t.Fatalf("after %d identities the store holds %d accounts, budget %d", done+batch, n, budget)
		}
		if st := graph.Stats(); st.Nodes > budget {
			t.Fatalf("after %d identities the graph holds %d nodes, budget %d", done+batch, st.Nodes, budget)
		}
	}

	if perOp := float64(steadyBytes) / float64(steadyOps); perOp > bytesPerOp {
		t.Errorf("steady-state churn allocates %.1f B per decision, want at most %d", perOp, bytesPerOp)
	} else {
		t.Logf("steady-state churn allocates %.1f B per decision over %d decisions", perOp, steadyOps)
	}
	if accounts.Evicted() == 0 || graph.Stats().Evicted == 0 {
		t.Fatalf("nothing was evicted: accounts %d, graph %+v", accounts.Evicted(), graph.Stats())
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	if live := int64(after.HeapAlloc) - int64(baseline); live > heapCeiling {
		t.Errorf("%d identities left %d B live, ceiling %d", identities, live, heapCeiling)
	} else {
		t.Logf("%d identities left %.2f MiB live", identities, float64(live)/(1<<20))
	}
	runtime.KeepAlive(gate)
}
