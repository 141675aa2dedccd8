package keytab

import (
	"strconv"
	"testing"
)

// The store shape under rotation: a working set of 4,096 keys in which
// every operation inserts a key never seen before and deletes the oldest.
const benchKeys = 4096

func benchKey(buf []byte, i int) []byte {
	return strconv.AppendUint(append(buf[:0], "fp:"...), uint64(i)*0x9e3779b97f4a7c15, 16)
}

// BenchmarkChurn is one rotation step: find the fresh key (a miss), insert
// it, delete the oldest. The map does what the stores did before the table:
// clone the key into a string to retain it.
func BenchmarkChurn(b *testing.B) {
	b.Run("table", func(b *testing.B) {
		tab := New[int32](benchKeys)
		slots := make([]int32, benchKeys)
		buf := make([]byte, 0, 32)
		for i := range benchKeys {
			slots[i] = tab.Insert(benchKey(buf, i))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := range b.N {
			k := benchKey(buf, benchKeys+i)
			if _, ok := tab.Find(k); ok {
				b.Fatal("fresh key found")
			}
			tab.Delete(slots[i%benchKeys])
			slots[i%benchKeys] = tab.Insert(k)
		}
	})
	b.Run("map", func(b *testing.B) {
		m := make(map[string]int32)
		keys := make([]string, benchKeys)
		buf := make([]byte, 0, 32)
		for i := range benchKeys {
			keys[i] = string(benchKey(buf, i))
			m[keys[i]] = int32(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := range b.N {
			k := benchKey(buf, benchKeys+i)
			if _, ok := m[string(k)]; ok {
				b.Fatal("fresh key found")
			}
			delete(m, keys[i%benchKeys])
			keys[i%benchKeys] = string(k)
			m[keys[i%benchKeys]] = int32(i)
		}
	})
}

// BenchmarkHitAfterChurn probes a resident key in a container that has
// seen 0 or 64 working sets' worth of rotation since it was built: if
// deletes left tombstones that lengthen probe runs, the churned column is
// the slower one.
func BenchmarkHitAfterChurn(b *testing.B) {
	for _, churn := range []int{0, 64 * benchKeys} {
		buf := make([]byte, 0, 32)
		tab := New[int32](benchKeys)
		m := make(map[string]int32)
		var resident [][]byte
		for i := range benchKeys + churn {
			k := benchKey(buf, i)
			tab.Insert(k)
			m[string(k)] = int32(i)
			if old := i - benchKeys; old >= 0 {
				s, _ := tab.Find(benchKey(buf, old))
				tab.Delete(s)
				delete(m, string(benchKey(buf, old)))
			}
		}
		for i := churn; i < churn+benchKeys; i++ {
			resident = append(resident, benchKey(nil, i))
		}
		name := strconv.Itoa(churn / benchKeys)
		b.Run("table/churned="+name, func(b *testing.B) {
			for i := range b.N {
				if _, ok := tab.Find(resident[i%benchKeys]); !ok {
					b.Fatal("resident key missing")
				}
			}
		})
		b.Run("map/churned="+name, func(b *testing.B) {
			for i := range b.N {
				if _, ok := m[string(resident[i%benchKeys])]; !ok {
					b.Fatal("resident key missing")
				}
			}
		})
	}
}
