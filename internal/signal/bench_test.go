package signal

import (
	"strconv"
	"sync"
	"testing"
	"time"

	"funabuse/internal/mitigate"
)

// The benchmarks contrast the sharded bucket-ring limiter with the
// simulation-grade mitigate.KeyedLimiter serialised behind one mutex —
// the exact structure the HTTP gate used before the signal engine.

func BenchmarkShardedLimiterParallel(b *testing.B) {
	l := NewLimiter(LimiterConfig{Window: time.Hour, Limit: 1000})
	base := time.Date(2022, time.May, 2, 0, 0, 0, 0, time.UTC)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			l.Allow("key-"+itoa(i%512), base.Add(time.Duration(i)*time.Millisecond))
			i++
		}
	})
}

func BenchmarkMutexKeyedLimiterParallel(b *testing.B) {
	var mu sync.Mutex
	l := mitigate.NewKeyedLimiter(time.Hour, 1000)
	base := time.Date(2022, time.May, 2, 0, 0, 0, 0, time.UTC)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			mu.Lock()
			l.Allow("key-"+itoa(i%512), base.Add(time.Duration(i)*time.Millisecond))
			mu.Unlock()
			i++
		}
	})
}

func BenchmarkWindowAdd(b *testing.B) {
	w := NewWindow(time.Hour, DefaultWindowBuckets)
	base := time.Date(2022, time.May, 2, 0, 0, 0, 0, time.UTC)
	for i := 0; b.Loop(); i++ {
		w.Add(base.Add(time.Duration(i)*time.Millisecond), 1)
	}
}

// BenchmarkWindowCount reads a ring holding events in every bucket at the
// instants a limiter meets: inside the newest bucket, some buckets later,
// after the key idled past the span (the sweep's case), and before the
// newest bucket (a clock that stepped back).
func BenchmarkWindowCount(b *testing.B) {
	const span = time.Hour
	width := span / DefaultWindowBuckets
	base := time.Date(2022, time.May, 2, 0, 0, 0, 0, time.UTC)
	for _, bc := range []struct {
		name string
		at   time.Time
	}{
		{"same_bucket", base},
		{"4_buckets_later", base.Add(4 * width)},
		{"idle_past_span", base.Add(2 * span)},
		{"stepped_back", base.Add(-3 * width)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			w := NewWindow(span, DefaultWindowBuckets)
			for i := range DefaultWindowBuckets {
				w.Add(base.Add(-time.Duration(i)*width), 1)
			}
			b.ReportAllocs()
			for b.Loop() {
				w.Count(bc.at)
			}
		})
	}
}

// BenchmarkLimiterAllowBytesWarm charges a warmed set of 2k keys in turn,
// the clock advancing a microsecond per attempt: the gate's steady state.
func BenchmarkLimiterAllowBytesWarm(b *testing.B) {
	l := NewLimiter(LimiterConfig{Window: time.Minute, Limit: 1 << 30})
	base := time.Date(2022, time.May, 2, 0, 0, 0, 0, time.UTC)
	keys := make([][]byte, 2048)
	for i := range keys {
		keys[i] = []byte("pf:user-" + itoa(i))
		l.AllowBytes(keys[i], base)
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		l.AllowBytes(keys[i%len(keys)], base.Add(time.Duration(i)*time.Microsecond))
	}
}

func BenchmarkCountMinAdd(b *testing.B) {
	c := NewCountMin(2048, 4)
	for i := 0; b.Loop(); i++ {
		c.Add("key-"+itoa(i%4096), 1)
	}
}

func BenchmarkDistinctAdd(b *testing.B) {
	d := NewDistinct(DefaultDistinctPrecision)
	for i := 0; b.Loop(); i++ {
		d.Add("ip-" + itoa(i%100000))
	}
}

func BenchmarkTopKOffer(b *testing.B) {
	tk := NewTopK(32)
	for i := 0; b.Loop(); i++ {
		tk.Offer("key-"+itoa(i%4096), 1)
	}
}

func BenchmarkEngineObserveAttr(b *testing.B) {
	e := NewEngine(EngineConfig{SurgeStart: time.Date(2022, time.May, 2, 0, 0, 0, 0, time.UTC)})
	base := time.Date(2022, time.May, 2, 0, 0, 0, 0, time.UTC)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			e.ObserveAttr("key-"+itoa(i%512), "ip-"+itoa(i%64),
				base.Add(time.Duration(i)*time.Millisecond))
			i++
		}
	})
}

// fleetProfileEngine returns a compact engine with every signal on, holding
// keys fingerprints each seen from several exits inside one window: a
// fleet-sized state with every codec section populated.
func fleetProfileEngine(keys int) *Engine {
	start := time.Date(2022, time.May, 2, 0, 0, 0, 0, time.UTC)
	e := NewEngine(EngineConfig{
		Shards: 4, Window: time.Minute, TopK: 32, SketchWidth: 512, SketchDepth: 4,
		DistinctPrecision: 8, SurgeStart: start, SurgePeriod: time.Minute,
	})
	for i := range 4 * keys {
		at := start.Add(time.Duration(i) * 10 * time.Millisecond)
		fp := uint64(i%keys+1) * 0x9e3779b97f4a7c15
		e.ObserveAttr("fp:"+strconv.FormatUint(fp, 16), "10.0.0."+itoa(i%200), at)
	}
	return e
}

func BenchmarkEngineState(b *testing.B) {
	e := fleetProfileEngine(500)
	b.ReportAllocs()
	for b.Loop() {
		e.State()
	}
}

func BenchmarkStateEncode(b *testing.B) {
	st := fleetProfileEngine(500).State()
	b.ReportAllocs()
	for b.Loop() {
		st.Encode()
	}
}

func BenchmarkStateDecode(b *testing.B) {
	wire := fleetProfileEngine(500).State().Encode()
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := DecodeState(wire); err != nil {
			b.Fatal(err)
		}
	}
}
