package signal

import (
	"math"
	"testing"
	"time"
)

func TestSurgeDetectorReproducesPctColumns(t *testing.T) {
	week := 7 * 24 * time.Hour
	s := NewSurgeDetector(t0, week)
	// Baseline week: UZ 2, GB 100.
	s.ObserveN("UZ", t0.Add(time.Hour), 2)
	s.ObserveN("GB", t0.Add(2*time.Hour), 100)
	// Attack week: UZ 3206 (+160,200%), GB 125 (+25%), KG from zero.
	s.ObserveN("UZ", t0.Add(week+time.Hour), 3206)
	s.ObserveN("GB", t0.Add(week+time.Hour), 125)
	s.ObserveN("KG", t0.Add(week+2*time.Hour), 50)

	surges := s.Surges()
	if len(surges) != 3 {
		t.Fatalf("%d keys", len(surges))
	}
	if surges[0].Key != "UZ" || surges[0].IncreasePct != 160200 {
		t.Fatalf("rank 1 = %+v, want UZ +160200%%", surges[0])
	}
	// Zero-baseline keys use the floor of one.
	if surges[1].Key != "KG" || surges[1].IncreasePct != 5000 {
		t.Fatalf("rank 2 = %+v, want KG +5000%%", surges[1])
	}
	if surges[2].Key != "GB" || surges[2].IncreasePct != 25 {
		t.Fatalf("rank 3 = %+v, want GB +25%%", surges[2])
	}
	if pct := s.GlobalIncreasePct(); math.Abs(pct-3214.7) > 0.1 {
		t.Fatalf("global increase %.1f%%", pct)
	}
}

func TestSurgeDetectorRollsPeriods(t *testing.T) {
	s := NewSurgeDetector(t0, time.Hour)
	s.Observe("k", t0.Add(time.Minute))
	s.Observe("k", t0.Add(61*time.Minute)) // period 1: k becomes baseline 1, current 1
	if b, a := s.Totals(); b != 1 || a != 1 {
		t.Fatalf("totals %d/%d after adjacent roll", b, a)
	}
	// Skipping periods empties both windows.
	s.Observe("k", t0.Add(5*time.Hour))
	if b, a := s.Totals(); b != 0 || a != 1 {
		t.Fatalf("totals %d/%d after gap roll", b, a)
	}
	// Late events from the immediately previous period fold into the
	// baseline; older ones are dropped.
	s.Observe("late", t0.Add(4*time.Hour+30*time.Minute))
	s.Observe("ancient", t0.Add(time.Minute))
	if b, _ := s.Totals(); b != 1 {
		t.Fatalf("baseline %d after late arrival", b)
	}
}

func TestSurgeDetectorHotAndAdvance(t *testing.T) {
	s := NewSurgeDetector(t0, time.Hour)
	s.ObserveN("quiet", t0.Add(time.Minute), 100)
	s.ObserveN("quiet", t0.Add(61*time.Minute), 105)
	s.ObserveN("spike", t0.Add(61*time.Minute), 80)
	hot := s.Surges()
	if len(hot) != 2 || hot[0].Key != "spike" || hot[1].IncreasePct >= 500 {
		t.Fatalf("surges = %+v, want spike alone above +500%%", hot)
	}
	// Two quiet hours later both keys must have aged out entirely.
	s.Advance(t0.Add(4 * time.Hour))
	if hot := s.Surges(); len(hot) != 0 {
		t.Fatalf("stale surges %+v after advance", hot)
	}
}

func TestEngineSignalsEndToEnd(t *testing.T) {
	e := NewEngine(EngineConfig{
		Window:      time.Hour,
		SurgeStart:  t0,
		SurgePeriod: 24 * time.Hour,
		TopK:        4,
	})
	day := 24 * time.Hour
	// Baseline day: modest traffic on two keys.
	for i := range 10 {
		e.Observe("SG", t0.Add(time.Duration(i)*time.Hour))
		e.Observe("GB", t0.Add(time.Duration(i)*time.Hour))
	}
	// Attack day: UZ explodes, each event from a fresh exit IP.
	for i := range 200 {
		at := t0.Add(day + time.Duration(i)*5*time.Minute)
		e.ObserveAttr("UZ", "ip-"+itoa(i), at)
	}
	now := t0.Add(day + 1000*time.Minute)

	// Rate is a trailing window as of the stream head (rings do not
	// answer historical queries): ~12 events per hour at 5-min spacing.
	if rate := e.Rate("UZ", now); rate < 10 || rate > 13 {
		t.Fatalf("trailing rate %d, want ~12 per hour", rate)
	}
	if f := e.Freq("UZ"); f < 200 {
		t.Fatalf("freq %d, want >= 200", f)
	}
	if d := e.Distinct("UZ"); d < 150 || d > 250 {
		t.Fatalf("distinct exits %.0f, want ~200", d)
	}
	top := e.Top(1)
	if len(top) != 1 || top[0].Key != "UZ" {
		t.Fatalf("top = %+v", top)
	}
	surges := e.Surges(1, now)
	if len(surges) != 1 || surges[0].Key != "UZ" || surges[0].Before != 0 {
		t.Fatalf("surges = %+v", surges)
	}
	if b, a := e.SurgeTotals(now); b != 20 || a != 200 {
		t.Fatalf("surge totals %d/%d", b, a)
	}
	if e.Observed() != 220 {
		t.Fatalf("observed %d", e.Observed())
	}
}

func TestEngineSweepsIdleState(t *testing.T) {
	e := NewEngine(EngineConfig{Window: time.Minute, DisableSurge: true})
	for i := range 5000 {
		e.ObserveAttr("k"+itoa(i), "attr", t0)
	}
	if e.TrackedKeys() == 0 {
		t.Fatal("nothing tracked")
	}
	e.Sweep(t0.Add(5 * time.Minute))
	if got := e.TrackedKeys(); got != 0 {
		t.Fatalf("%d idle keys survived sweep", got)
	}
	if d := e.Distinct("k1"); d != 0 {
		t.Fatalf("distinct state survived sweep: %.0f", d)
	}
}

func TestEngineConcurrentObserve(t *testing.T) {
	e := NewEngine(EngineConfig{SurgeStart: t0, SurgePeriod: time.Hour})
	const workers = 8
	const perWorker = 5000
	done := make(chan struct{}, workers)
	for w := range workers {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := range perWorker {
				key := "key-" + itoa((w*perWorker+i)%97)
				e.ObserveAttr(key, "ip-"+itoa(i%31), t0.Add(time.Duration(i)*time.Second))
				if i%64 == 0 {
					e.Rate(key, t0.Add(time.Duration(i)*time.Second))
					e.Top(3)
				}
			}
		}(w)
	}
	for range workers {
		<-done
	}
	if got := e.Observed(); got != workers*perWorker {
		t.Fatalf("observed %d, want %d", got, workers*perWorker)
	}
	total := 0
	for _, entry := range e.Top(0) {
		total += int(entry.Count)
	}
	if total == 0 {
		t.Fatal("heavy hitters empty after concurrent load")
	}
}
