package booking

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"funabuse/internal/simclock"
	"funabuse/internal/simrand"
)

func TestQuoteWalksTheLadder(t *testing.T) {
	fs := NewFareSchedule(
		FareBucket{Seats: 2, PriceUSD: 79},
		FareBucket{Seats: 2, PriceUSD: 129},
		FareBucket{Seats: 2, PriceUSD: 199},
	)
	cases := []struct {
		occupied int
		want     float64
	}{
		{0, 79}, {1, 79}, {2, 129}, {3, 129}, {4, 199}, {5, 199},
	}
	for _, tc := range cases {
		got, err := fs.Quote(tc.occupied)
		if err != nil {
			t.Fatalf("Quote(%d): %v", tc.occupied, err)
		}
		if got != tc.want {
			t.Fatalf("Quote(%d) = %v, want %v", tc.occupied, got, tc.want)
		}
	}
	if _, err := fs.Quote(6); !errors.Is(err, ErrSoldOut) {
		t.Fatalf("sold-out err = %v", err)
	}
	if got, err := fs.Quote(-5); err != nil || got != 79 {
		t.Fatalf("negative occupancy: %v, %v", got, err)
	}
}

func TestNewFareScheduleSortsByPrice(t *testing.T) {
	fs := NewFareSchedule(
		FareBucket{Seats: 1, PriceUSD: 199},
		FareBucket{Seats: 1, PriceUSD: 79},
	)
	if got, _ := fs.Quote(0); got != 79 {
		t.Fatalf("cheapest first quote %v", got)
	}
}

func TestDefaultFareSchedule(t *testing.T) {
	fs := DefaultFareSchedule(180)
	seats := 0
	for _, b := range fs {
		seats += b.Seats
	}
	if seats != 180 {
		t.Fatalf("capacity %d", seats)
	}
	if got, _ := fs.Quote(0); got != 79 {
		t.Fatalf("base fare %v", got)
	}
	if fs.BucketIndex(0) != 0 || fs.BucketIndex(60) != 1 || fs.BucketIndex(179) != 2 || fs.BucketIndex(180) != 3 {
		t.Fatal("bucket boundaries wrong")
	}
}

func TestQuoteMonotoneProperty(t *testing.T) {
	fs := DefaultFareSchedule(180)
	f := func(a, b uint8) bool {
		lo, hi := int(a)%180, int(b)%180
		if lo > hi {
			lo, hi = hi, lo
		}
		pl, err1 := fs.Quote(lo)
		ph, err2 := fs.Quote(hi)
		if err1 != nil || err2 != nil {
			return false
		}
		return ph >= pl
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuoteFareReflectsHolds(t *testing.T) {
	start := time.Date(2022, time.May, 2, 0, 0, 0, 0, time.UTC)
	clock := simclock.NewManual(start)
	sys := NewSystem(clock, simrand.New(1), Config{HoldTTL: 30 * time.Minute, MaxNiP: 9})
	sys.AddFlight(Flight{ID: "F", Capacity: 9, Departure: start.Add(72 * time.Hour)})
	fs := NewFareSchedule(
		FareBucket{Seats: 3, PriceUSD: 79},
		FareBucket{Seats: 3, PriceUSD: 129},
		FareBucket{Seats: 3, PriceUSD: 199},
	)
	quote := func() float64 {
		t.Helper()
		av, err := sys.AvailabilityOf("F")
		if err != nil {
			t.Fatal(err)
		}
		v, err := fs.Quote(av.Held + av.Sold)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if quote() != 79 {
		t.Fatal("empty flight not at base fare")
	}
	// A DoI hold of 4 seats pushes the displayed fare up a bucket.
	if _, err := sys.RequestHold(HoldRequest{Flight: "F", Passengers: party(4), ActorID: "doi"}); err != nil {
		t.Fatal(err)
	}
	if quote() != 129 {
		t.Fatalf("fare under holds %v, want 129", quote())
	}
	// The hold expires; the fare falls back.
	clock.Advance(31 * time.Minute)
	if quote() != 79 {
		t.Fatalf("fare after expiry %v, want 79", quote())
	}
}
