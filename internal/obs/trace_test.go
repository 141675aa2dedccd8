package obs

import (
	"strconv"
	"sync"
	"testing"
	"time"
)

func TestTraceRingRetainsNewest(t *testing.T) {
	ring := NewTraceRing(4)
	for i := 0; i < 10; i++ {
		ring.Record(Span{Path: "/p/" + strconv.Itoa(i), Verdict: VerdictAdmit})
	}
	if ring.Total() != 10 {
		t.Fatalf("Total = %d, want 10", ring.Total())
	}
	spans := ring.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("Snapshot len = %d, want 4", len(spans))
	}
	for i, s := range spans {
		wantSeq := uint64(7 + i)
		if s.Seq != wantSeq {
			t.Errorf("span %d Seq = %d, want %d", i, s.Seq, wantSeq)
		}
		if want := "/p/" + strconv.Itoa(6+i); s.Path != want {
			t.Errorf("span %d Path = %q, want %q", i, s.Path, want)
		}
	}
}

func TestTraceRingPartialFill(t *testing.T) {
	ring := NewTraceRing(8)
	ring.Record(Span{Path: "/only"})
	spans := ring.Snapshot()
	if len(spans) != 1 || spans[0].Path != "/only" || spans[0].Seq != 1 {
		t.Fatalf("Snapshot = %+v", spans)
	}
}

func TestTraceRingDefaultCapacity(t *testing.T) {
	if got := len(NewTraceRing(0).buf); got != DefaultTraceCapacity {
		t.Fatalf("Cap = %d, want %d", got, DefaultTraceCapacity)
	}
}

func TestTraceRingConcurrentRecord(t *testing.T) {
	ring := NewTraceRing(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				ring.Record(Span{Start: time.Unix(int64(i), 0), Verdict: VerdictAdmit})
			}
		}()
	}
	wg.Wait()
	if ring.Total() != 4000 {
		t.Fatalf("Total = %d, want 4000", ring.Total())
	}
	spans := ring.Snapshot()
	if len(spans) != 64 {
		t.Fatalf("Snapshot len = %d, want 64", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Seq != spans[i-1].Seq+1 {
			t.Fatalf("non-contiguous Seq at %d: %d after %d", i, spans[i].Seq, spans[i-1].Seq)
		}
	}
}

func TestTraceRecordDoesNotAllocate(t *testing.T) {
	ring := NewTraceRing(16)
	span := Span{Path: "/p", Verdict: VerdictAdmit, Dur: time.Millisecond}
	if allocs := testing.AllocsPerRun(256, func() { ring.Record(span) }); allocs != 0 {
		t.Fatalf("Record allocates %v/op, want 0", allocs)
	}
}
