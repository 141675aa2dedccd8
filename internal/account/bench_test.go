package account

import (
	"fmt"
	"testing"
	"time"
)

// benchBudget is the churn workload's account budget (bench/ gate_churn).
const benchBudget = 4096

// BenchmarkStoreObserve is the hit path: a request by an account the store
// already holds.
func BenchmarkStoreObserve(b *testing.B) {
	s := NewStore(Config{})
	keys := make([]string, benchBudget)
	for i := range keys {
		keys[i] = fmt.Sprintf("session-%06d", i)
		s.Observe(keys[i], t0, false, false)
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		s.Observe(keys[i%len(keys)], t0.Add(time.Duration(i)*time.Millisecond), i%8 == 0, false)
		i++
	}
}

// BenchmarkStoreObserveEvict is the attack path: every request is a fresh
// account against a saturated budget, so one insert in 1,025 evicts 1,025.
// The key ring is sixteen budgets long; a key is long gone when it recurs.
func BenchmarkStoreObserveEvict(b *testing.B) {
	s := NewStore(Config{MaxAccounts: benchBudget})
	keys := make([]string, 16*benchBudget)
	for i := range keys {
		keys[i] = fmt.Sprintf("session-%06d", i)
	}
	i := 0
	observe := func() {
		s.Observe(keys[i%len(keys)], t0.Add(time.Duration(i)*time.Millisecond), false, false)
		i++
	}
	for range 2 * benchBudget {
		observe()
	}
	b.ReportAllocs()
	for b.Loop() {
		observe()
	}
}
