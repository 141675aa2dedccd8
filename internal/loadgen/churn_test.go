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
	"funabuse/internal/race"
	"funabuse/internal/simclock"
)

// TestTargetGateChurnAllocAndHeapBound is the memory budget proved under
// the attack it models: a million identities, each seen once — fresh
// fingerprint, address and session on every request, the paper's rotating
// attacker — through the whole NewTargetGate stack with 4,096-slot store
// budgets and every rate limiter on. The bounded stores must stay inside
// their budgets, a decision in steady state must allocate next to nothing
// (each store copies a new key into a slot a sweep or an eviction freed;
// a sweep that frees more keys than arrived hands a few rings back), and
// what survives a collection must not grow with the identities that went
// by: the live heap at the end must equal the live heap after 100k of them,
// to within what a sweep cycle moves it (1/16).
func TestTargetGateChurnAllocAndHeapBound(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	const (
		budget     = 4096
		batch      = 8192
		bytesPerOp = 1
		// Slabs, scratch and maps reach their final size; the limiters'
		// slabs follow their population's peaks for ~80k decisions.
		warmupBatches = 10
	)
	identities, checkpoint := 1_000_000, 100_000
	if testing.Short() {
		identities, checkpoint = 200_000, 100_000
	}

	clock := simclock.NewManual(t0)
	graph := entitygraph.New(entitygraph.Config{MaxNodes: budget})
	accounts := account.NewStore(account.Config{MaxAccounts: budget})
	// Every limiter is on, the two keyed by identity (profile and account
	// rate) with windows that hold 10k identities at once: their sweeps free
	// a shard's worth of expired keys as fast as new ones arrive.
	gate, _, _ := NewTargetGate(TargetConfig{
		Clock:               clock,
		Accounts:            accounts,
		AccountRestricted:   map[string]int{PathSeatMap: int(account.Member)},
		AccountBaseLimit:    20,
		AccountWindow:       10 * time.Second,
		AccountBookingPaths: []string{PathHold},
		EntityGraph:         graph,
		EntityPaths:         []string{PathHold},
		EntityWeak:          0.5,
		PathLimit:           1 << 30,
		PathWindow:          10 * time.Second,
		ProfileLimit:        30,
		ProfileWindow:       10 * time.Second,
		ResourceLimit:       1 << 30,
		ResourceWindow:      time.Minute,
	})
	r := httptest.NewRequest(http.MethodGet, PathHold+"?pnr=PNR00001", nil)

	var before, after runtime.MemStats
	liveHeap := func() int64 {
		runtime.GC()
		runtime.ReadMemStats(&after)
		return int64(after.HeapAlloc)
	}
	baseline := liveHeap()
	var atCheckpoint int64

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
		if done < checkpoint && done+batch >= checkpoint {
			atCheckpoint = liveHeap() - baseline
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

	live := liveHeap() - baseline
	if d := live - atCheckpoint; d > atCheckpoint/16 || d < -atCheckpoint/16 {
		t.Errorf("%d identities left %d B live, %d identities left %d B", identities, live, checkpoint, atCheckpoint)
	} else {
		t.Logf("%d identities left %.2f MiB live, %d left %.2f MiB", identities, float64(live)/(1<<20), checkpoint, float64(atCheckpoint)/(1<<20))
	}
	runtime.KeepAlive(gate)
}
