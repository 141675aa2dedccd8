package booking

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"funabuse/internal/names"
	"funabuse/internal/simclock"
	"funabuse/internal/simrand"
)

var t0 = time.Date(2022, time.May, 2, 8, 0, 0, 0, time.UTC)

func newSystem(t *testing.T, cfg Config) (*System, *simclock.Manual) {
	t.Helper()
	clock := simclock.NewManual(t0)
	sys := NewSystem(clock, simrand.New(1), cfg)
	sys.AddFlight(Flight{
		ID: "AA100/2022-05-09", Airline: "A", Capacity: 180,
		Departure: t0.Add(7 * 24 * time.Hour),
	})
	return sys, clock
}

func party(n int) []names.Identity {
	g := names.NewGenerator(simrand.New(99))
	out := make([]names.Identity, n)
	for i := range out {
		out[i] = g.Realistic()
	}
	return out
}

const flightID = FlightID("AA100/2022-05-09")

func TestHoldBlocksInventory(t *testing.T) {
	sys, _ := newSystem(t, DefaultConfig())
	h, err := sys.RequestHold(HoldRequest{Flight: flightID, Passengers: party(6), ActorID: "bot"})
	if err != nil {
		t.Fatalf("RequestHold: %v", err)
	}
	if h.NiP != 6 {
		t.Fatalf("NiP = %d", h.NiP)
	}
	av, err := sys.AvailabilityOf(flightID)
	if err != nil {
		t.Fatal(err)
	}
	if av.Held != 6 || av.Available != 174 {
		t.Fatalf("availability %+v", av)
	}
}

func TestHoldExpiresBackToStock(t *testing.T) {
	sys, clock := newSystem(t, Config{HoldTTL: 30 * time.Minute, MaxNiP: 9})
	if _, err := sys.RequestHold(HoldRequest{Flight: flightID, Passengers: party(4)}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(29 * time.Minute)
	av, _ := sys.AvailabilityOf(flightID)
	if av.Held != 4 {
		t.Fatalf("hold expired early: %+v", av)
	}
	clock.Advance(2 * time.Minute)
	av, _ = sys.AvailabilityOf(flightID)
	if av.Held != 0 || av.Available != 180 {
		t.Fatalf("hold did not expire: %+v", av)
	}
	if sys.LiveHolds() != 0 {
		t.Fatalf("LiveHolds = %d", sys.LiveHolds())
	}
}

func TestNiPCapEnforced(t *testing.T) {
	sys, _ := newSystem(t, Config{HoldTTL: time.Hour, MaxNiP: 4})
	_, err := sys.RequestHold(HoldRequest{Flight: flightID, Passengers: party(5)})
	if !errors.Is(err, ErrNiPCapExceeded) {
		t.Fatalf("err = %v, want ErrNiPCapExceeded", err)
	}
	if _, err := sys.RequestHold(HoldRequest{Flight: flightID, Passengers: party(4)}); err != nil {
		t.Fatalf("cap-compliant hold rejected: %v", err)
	}
}

func TestSetMaxNiPMitigation(t *testing.T) {
	sys, _ := newSystem(t, DefaultConfig())
	if _, err := sys.RequestHold(HoldRequest{Flight: flightID, Passengers: party(6)}); err != nil {
		t.Fatalf("pre-mitigation NiP 6 rejected: %v", err)
	}
	sys.SetMaxNiP(4)
	if _, err := sys.RequestHold(HoldRequest{Flight: flightID, Passengers: party(6)}); !errors.Is(err, ErrNiPCapExceeded) {
		t.Fatalf("post-mitigation NiP 6 err = %v", err)
	}
	sys.SetMaxNiP(0) // invalid, ignored
	if sys.Config().MaxNiP != 4 {
		t.Fatal("SetMaxNiP(0) changed the cap")
	}
}

func TestStockExhaustion(t *testing.T) {
	sys, _ := newSystem(t, Config{HoldTTL: time.Hour, MaxNiP: 9})
	held := 0
	for held+9 <= 180 {
		if _, err := sys.RequestHold(HoldRequest{Flight: flightID, Passengers: party(9)}); err != nil {
			t.Fatalf("hold at %d seats: %v", held, err)
		}
		held += 9
	}
	_, err := sys.RequestHold(HoldRequest{Flight: flightID, Passengers: party(9)})
	if !errors.Is(err, ErrInsufficientStock) {
		t.Fatalf("err = %v, want ErrInsufficientStock", err)
	}
}

func TestDepartedFlightRejects(t *testing.T) {
	sys, clock := newSystem(t, DefaultConfig())
	clock.Advance(8 * 24 * time.Hour)
	_, err := sys.RequestHold(HoldRequest{Flight: flightID, Passengers: party(1)})
	if !errors.Is(err, ErrFlightDeparted) {
		t.Fatalf("err = %v, want ErrFlightDeparted", err)
	}
}

func TestUnknownFlight(t *testing.T) {
	sys, _ := newSystem(t, DefaultConfig())
	_, err := sys.RequestHold(HoldRequest{Flight: "XX1", Passengers: party(1)})
	if !errors.Is(err, ErrFlightNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestEmptyPartyRejected(t *testing.T) {
	sys, _ := newSystem(t, DefaultConfig())
	_, err := sys.RequestHold(HoldRequest{Flight: flightID})
	if !errors.Is(err, ErrNiPInvalid) {
		t.Fatalf("err = %v, want ErrNiPInvalid", err)
	}
}

func TestConfirmIssuesTicket(t *testing.T) {
	sys, clock := newSystem(t, DefaultConfig())
	h, err := sys.RequestHold(HoldRequest{Flight: flightID, Passengers: party(2)})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := sys.Confirm(h.ID)
	if err != nil {
		t.Fatalf("Confirm: %v", err)
	}
	if len(tk.RecordLocator) != 6 {
		t.Fatalf("record locator %q", tk.RecordLocator)
	}
	if !sys.TicketExists(tk.RecordLocator) {
		t.Fatal("ticket not retrievable by locator")
	}
	// Sold seats never expire back.
	clock.Advance(24 * time.Hour)
	av, _ := sys.AvailabilityOf(flightID)
	if av.Sold != 2 || av.Held != 0 || av.Available != 178 {
		t.Fatalf("availability after confirm %+v", av)
	}
}

func TestConfirmExpiredHoldFails(t *testing.T) {
	sys, clock := newSystem(t, Config{HoldTTL: 10 * time.Minute, MaxNiP: 9})
	h, _ := sys.RequestHold(HoldRequest{Flight: flightID, Passengers: party(1)})
	clock.Advance(11 * time.Minute)
	if _, err := sys.Confirm(h.ID); !errors.Is(err, ErrHoldNotFound) {
		t.Fatalf("err = %v, want ErrHoldNotFound (expired)", err)
	}
}

func TestRecordLocatorsUnique(t *testing.T) {
	sys, _ := newSystem(t, DefaultConfig())
	seen := map[string]bool{}
	for range 100 {
		h, err := sys.RequestHold(HoldRequest{Flight: flightID, Passengers: party(1)})
		if err != nil {
			t.Fatal(err)
		}
		tk, err := sys.Confirm(h.ID)
		if err != nil {
			t.Fatal(err)
		}
		if seen[tk.RecordLocator] {
			t.Fatalf("duplicate locator %s", tk.RecordLocator)
		}
		seen[tk.RecordLocator] = true
	}
	if sys.Tickets() != 100 {
		t.Fatalf("Tickets() = %d", sys.Tickets())
	}
}

func TestJournalRecordsOutcomes(t *testing.T) {
	sys, _ := newSystem(t, Config{HoldTTL: time.Hour, MaxNiP: 4})
	_, _ = sys.RequestHold(HoldRequest{Flight: flightID, Passengers: party(2), ActorID: "legit"})
	_, _ = sys.RequestHold(HoldRequest{Flight: flightID, Passengers: party(6), ActorID: "bot"})
	j := sys.Journal()
	if len(j) != 2 {
		t.Fatalf("journal has %d records", len(j))
	}
	if j[0].Outcome != OutcomeAccepted || j[0].ActorID != "legit" {
		t.Fatalf("first record %+v", j[0])
	}
	if j[1].Outcome != OutcomeRejectedCap || j[1].NiP != 6 {
		t.Fatalf("second record %+v", j[1])
	}
}

func TestNiPHistogramCountsAcceptedOnly(t *testing.T) {
	records := []Record{
		{NiP: 1, Outcome: OutcomeAccepted},
		{NiP: 1, Outcome: OutcomeAccepted},
		{NiP: 6, Outcome: OutcomeAccepted},
		{NiP: 6, Outcome: OutcomeRejectedCap},
		{NiP: 12, Outcome: OutcomeAccepted},
	}
	h := NiPHistogram(records, 9)
	if h[1] != 2 || h[6] != 1 || h[9] != 1 {
		t.Fatalf("histogram %v", h)
	}
}

func TestNiPSharesNormalised(t *testing.T) {
	h := map[int]int{1: 3, 2: 1}
	shares := NiPShares(h, 4)
	if len(shares) != 4 {
		t.Fatalf("len = %d", len(shares))
	}
	if shares[0] != 0.75 || shares[1] != 0.25 || shares[2] != 0 {
		t.Fatalf("shares %v", shares)
	}
	empty := NiPShares(map[int]int{}, 4)
	for _, v := range empty {
		if v != 0 {
			t.Fatal("empty histogram produced non-zero share")
		}
	}
}

func TestSeatHours(t *testing.T) {
	records := []Record{
		{Flight: flightID, NiP: 6, Outcome: OutcomeAccepted},
		{Flight: flightID, NiP: 6, Outcome: OutcomeAccepted},
		{Flight: "other", NiP: 6, Outcome: OutcomeAccepted},
		{Flight: flightID, NiP: 6, Outcome: OutcomeRejectedStock},
	}
	got := SeatHours(records, flightID, 30*time.Minute)
	if got != 6 { // 2 holds * 6 seats * 0.5h
		t.Fatalf("SeatHours = %v, want 6", got)
	}
}

func TestFormatNiP(t *testing.T) {
	if FormatNiP(3, 7) != "3" || FormatNiP(7, 7) != "7+" || FormatNiP(9, 7) != "7+" {
		t.Fatal("FormatNiP wrong")
	}
}

func TestJournalBetween(t *testing.T) {
	sys, clock := newSystem(t, DefaultConfig())
	for range 3 {
		_, _ = sys.RequestHold(HoldRequest{Flight: flightID, Passengers: party(1)})
		clock.Advance(time.Hour)
	}
	got := sys.JournalBetween(t0.Add(time.Hour), t0.Add(3*time.Hour))
	if len(got) != 2 {
		t.Fatalf("JournalBetween returned %d", len(got))
	}
}

func TestInventoryConservationProperty(t *testing.T) {
	// Invariant: held + sold + available == capacity after any operation mix.
	f := func(seed uint64, ops []uint8) bool {
		clock := simclock.NewManual(t0)
		sys := NewSystem(clock, simrand.New(seed), Config{HoldTTL: 20 * time.Minute, MaxNiP: 9})
		sys.AddFlight(Flight{ID: "F", Capacity: 60, Departure: t0.Add(72 * time.Hour)})
		rng := simrand.New(seed)
		var live []HoldID
		for _, op := range ops {
			switch op % 3 {
			case 0:
				h, err := sys.RequestHold(HoldRequest{Flight: "F", Passengers: party(1 + rng.Intn(9))})
				if err == nil {
					live = append(live, h.ID)
				}
			case 1:
				if len(live) > 0 {
					_, _ = sys.Confirm(live[rng.Intn(len(live))])
				}
			case 2:
				clock.Advance(time.Duration(rng.Intn(30)) * time.Minute)
			}
			av, err := sys.AvailabilityOf("F")
			if err != nil {
				return false
			}
			if av.Held+av.Sold+av.Available != av.Capacity {
				return false
			}
			if av.Held < 0 || av.Sold < 0 || av.Available < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestHoldInfoCopies(t *testing.T) {
	sys, _ := newSystem(t, DefaultConfig())
	h, _ := sys.RequestHold(HoldRequest{Flight: flightID, Passengers: party(2)})
	info, ok := sys.HoldInfo(h.ID)
	if !ok {
		t.Fatal("HoldInfo missing live hold")
	}
	info.Passengers[0].First = "MUTATED"
	again, _ := sys.HoldInfo(h.ID)
	if again.Passengers[0].First == "MUTATED" {
		t.Fatal("HoldInfo exposed internal passenger slice")
	}
}

func TestOutcomeString(t *testing.T) {
	if OutcomeAccepted.String() != "accepted" || OutcomeRejectedCap.String() != "rejected-cap" {
		t.Fatal("Outcome.String wrong")
	}
	if Outcome(42).String() != "Outcome(42)" {
		t.Fatal("unknown outcome string wrong")
	}
}
