package booking

import (
	"errors"
	"sort"
)

// Fare buckets model airline revenue management: a flight's seats are sold
// in classes of increasing price, and the displayed fare is the cheapest
// class with inventory left. Because temporary holds consume bucket
// inventory exactly like sales, a Denial-of-Inventory attack moves the
// displayed fare up the ladder for everyone else — the dynamic-pricing
// manipulation motive the paper's Section II-A describes.

// FareBucket is one fare class: a seat allocation at a price.
type FareBucket struct {
	Seats    int
	PriceUSD float64
}

// FareSchedule is a flight's fare ladder, cheapest first.
type FareSchedule []FareBucket

// ErrSoldOut is returned by Quote when no bucket has inventory left.
var ErrSoldOut = errors.New("booking: all fare buckets exhausted")

// NewFareSchedule returns a ladder; buckets are sorted by price.
func NewFareSchedule(buckets ...FareBucket) FareSchedule {
	fs := make(FareSchedule, len(buckets))
	copy(fs, buckets)
	sort.SliceStable(fs, func(i, j int) bool { return fs[i].PriceUSD < fs[j].PriceUSD })
	return fs
}

// DefaultFareSchedule splits capacity into three equal classes at a
// short-haul price ladder.
func DefaultFareSchedule(capacity int) FareSchedule {
	per := capacity / 3
	return NewFareSchedule(
		FareBucket{Seats: per, PriceUSD: 79},
		FareBucket{Seats: per, PriceUSD: 129},
		FareBucket{Seats: capacity - 2*per, PriceUSD: 199},
	)
}

// Capacity returns the total seats across buckets.
func (fs FareSchedule) Capacity() int {
	total := 0
	for _, b := range fs {
		total += b.Seats
	}
	return total
}

// Quote returns the displayed fare when occupied seats (sold plus held)
// are unavailable: the price of the cheapest bucket with space.
func (fs FareSchedule) Quote(occupied int) (float64, error) {
	if occupied < 0 {
		occupied = 0
	}
	remaining := occupied
	for _, b := range fs {
		if remaining < b.Seats {
			return b.PriceUSD, nil
		}
		remaining -= b.Seats
	}
	return 0, ErrSoldOut
}

// BucketIndex returns which fare class the displayed fare sits in at the
// given occupancy, or len(fs) when sold out.
func (fs FareSchedule) BucketIndex(occupied int) int {
	if occupied < 0 {
		occupied = 0
	}
	remaining := occupied
	for i, b := range fs {
		if remaining < b.Seats {
			return i
		}
		remaining -= b.Seats
	}
	return len(fs)
}
