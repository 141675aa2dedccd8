package sms

import (
	"errors"
	"math"
	"testing"
	"time"

	"funabuse/internal/geo"
	"funabuse/internal/simclock"
	"funabuse/internal/simrand"
)

var t0 = time.Date(2022, time.December, 1, 0, 0, 0, 0, time.UTC)

func newGateway(opts ...GatewayOption) (*Gateway, *simclock.Manual) {
	clock := simclock.NewManual(t0)
	return NewGateway(clock, geo.Default(), opts...), clock
}

func numberIn(code string, seed uint64) geo.MSISDN {
	return geo.PlanFor(geo.Default().MustLookup(code)).Random(simrand.New(seed))
}

func premiumIn(code string, seed uint64) geo.MSISDN {
	return geo.PlanFor(geo.Default().MustLookup(code)).RandomPremium(simrand.New(seed))
}

func TestSendBillsDestinationRate(t *testing.T) {
	g, _ := newGateway()
	m, err := g.Send(numberIn("UZ", 1), KindOTP, "login", "attacker")
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	uz := geo.Default().MustLookup("UZ")
	if m.CostUSD != uz.TerminationUSD {
		t.Fatalf("cost %v, want %v", m.CostUSD, uz.TerminationUSD)
	}
	if m.Country != "UZ" {
		t.Fatalf("message %+v", m)
	}
}

func TestSendPremiumRate(t *testing.T) {
	g, _ := newGateway()
	m, err := g.Send(premiumIn("UZ", 2), KindOTP, "login", "attacker")
	if err != nil {
		t.Fatal(err)
	}
	uz := geo.Default().MustLookup("UZ")
	if m.CostUSD != uz.PremiumUSD {
		t.Fatalf("premium message %+v", m)
	}
}

func TestSendUnknownDestination(t *testing.T) {
	g, _ := newGateway()
	if _, err := g.Send("00000000000", KindOTP, "x", "a"); !errors.Is(err, ErrUnknownDestination) {
		t.Fatalf("err = %v", err)
	}
}

func TestQuotaLocksOutLaterSenders(t *testing.T) {
	g, _ := newGateway(WithQuota(3))
	for range 3 {
		if _, err := g.Send(numberIn("FR", 3), KindOTP, "x", "legit"); err != nil {
			t.Fatal(err)
		}
	}
	_, err := g.Send(numberIn("FR", 4), KindOTP, "x", "legit")
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("err = %v, want ErrQuotaExceeded", err)
	}
	if g.sent != 3 {
		t.Fatalf("sent %d, want 3", g.sent)
	}
}

func TestFraudRevenueAccrues(t *testing.T) {
	g, _ := newGateway()
	uz := geo.Default().MustLookup("UZ")
	for range 10 {
		if _, err := g.Send(numberIn("UZ", 5), KindOTP, "x", "attacker"); err != nil {
			t.Fatal(err)
		}
	}
	want := 10 * uz.TerminationUSD * uz.RevenueShare
	if diff := math.Abs(g.RevenueFor("attacker") - want); diff > 1e-9 {
		t.Fatalf("RevenueFor = %v, want %v", g.RevenueFor("attacker"), want)
	}
	if g.RevenueFor("someone-else") != 0 {
		t.Fatal("revenue attributed to wrong actor")
	}
}

func TestJournalBetween(t *testing.T) {
	g, clock := newGateway()
	for range 3 {
		if _, err := g.Send(numberIn("GB", 6), KindNotification, "x", "a"); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Hour)
	}
	got := g.JournalBetween(t0.Add(time.Hour), t0.Add(3*time.Hour))
	if len(got) != 2 {
		t.Fatalf("JournalBetween returned %d", len(got))
	}
}

type fakeTickets map[string]bool

func (f fakeTickets) TicketExists(loc string) bool { return f[loc] }

func TestBoardingPassRequiresTicket(t *testing.T) {
	g, _ := newGateway()
	svc := NewBoardingPassService(g, fakeTickets{"ABC123": true})
	if _, err := svc.Send("ABC123", numberIn("UZ", 9), "attacker"); err != nil {
		t.Fatalf("valid locator rejected: %v", err)
	}
	if _, err := svc.Send("NOPE99", numberIn("UZ", 10), "attacker"); !errors.Is(err, ErrUnknownLocator) {
		t.Fatalf("err = %v", err)
	}
}

func TestUnboundedResendIsTheVulnerability(t *testing.T) {
	// The Airline D flaw: one locator, unlimited boarding-pass sends.
	g, _ := newGateway()
	svc := NewBoardingPassService(g, fakeTickets{"ABC123": true})
	for i := range 500 {
		if _, err := svc.Send("ABC123", numberIn("UZ", uint64(i)), "attacker"); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if g.sent != 500 {
		t.Fatalf("Sent() = %d", g.sent)
	}
}

func TestCountByCountry(t *testing.T) {
	msgs := []Message{
		{Country: "UZ", Kind: KindOTP},
		{Country: "UZ", Kind: KindBoardingPass},
		{Country: "FR", Kind: KindOTP},
	}
	byCountry := CountByCountry(msgs)
	if byCountry["UZ"] != 2 || byCountry["FR"] != 1 {
		t.Fatalf("byCountry %v", byCountry)
	}
}

func TestSurgeByCountry(t *testing.T) {
	before := []Message{
		{Country: "GB"}, {Country: "GB"}, {Country: "GB"}, {Country: "GB"},
		{Country: "UZ"},
	}
	after := []Message{
		{Country: "GB"}, {Country: "GB"}, {Country: "GB"}, {Country: "GB"}, {Country: "GB"}, {Country: "GB"},
		{Country: "UZ"}, {Country: "UZ"}, {Country: "UZ"}, {Country: "UZ"}, {Country: "UZ"},
		{Country: "KH"},
	}
	surges := SurgeByCountry(before, after)
	if surges[0].Country != "UZ" || surges[0].IncreasePct != 400 {
		t.Fatalf("top surge %+v", surges[0])
	}
	var gb, kh Surge
	for _, s := range surges {
		switch s.Country {
		case "GB":
			gb = s
		case "KH":
			kh = s
		}
	}
	if gb.IncreasePct != 50 {
		t.Fatalf("GB surge %+v", gb)
	}
	// KH absent from baseline: floor of 1 keeps the ratio finite, so one
	// new message reads as +100%.
	if kh.Before != 0 || kh.IncreasePct != 100 {
		t.Fatalf("KH surge %+v", kh)
	}
}

func TestSurgeOrderingDescending(t *testing.T) {
	before := []Message{{Country: "A"}, {Country: "B"}, {Country: "B"}}
	after := []Message{
		{Country: "A"}, {Country: "A"}, {Country: "A"},
		{Country: "B"}, {Country: "B"}, {Country: "B"},
	}
	surges := SurgeByCountry(before, after)
	for i := 1; i < len(surges); i++ {
		if surges[i-1].IncreasePct < surges[i].IncreasePct {
			t.Fatalf("surges not descending: %+v", surges)
		}
	}
}

func TestTopSurgesTruncates(t *testing.T) {
	before := []Message{{Country: "A"}, {Country: "B"}, {Country: "C"}}
	after := []Message{{Country: "A"}, {Country: "A"}, {Country: "B"}, {Country: "C"}}
	if got := len(TopSurges(before, after, 2)); got != 2 {
		t.Fatalf("TopSurges len %d", got)
	}
	if got := len(TopSurges(before, after, 99)); got != 3 {
		t.Fatalf("TopSurges overflow len %d", got)
	}
}

func TestGlobalIncreasePct(t *testing.T) {
	before := make([]Message, 100)
	after := make([]Message, 125)
	if got := GlobalIncreasePct(before, after); got != 25 {
		t.Fatalf("GlobalIncreasePct = %v", got)
	}
	if got := GlobalIncreasePct(nil, nil); got != 0 {
		t.Fatalf("empty GlobalIncreasePct = %v", got)
	}
	if got := GlobalIncreasePct(nil, after); !math.IsInf(got, 1) {
		t.Fatalf("zero-baseline GlobalIncreasePct = %v", got)
	}
}

func TestKindString(t *testing.T) {
	if KindOTP.String() != "otp" || KindBoardingPass.String() != "boarding-pass" ||
		KindNotification.String() != "notification" || Kind(9).String() != "Kind(9)" {
		t.Fatal("Kind.String wrong")
	}
}

func TestJournalIsCopy(t *testing.T) {
	g, _ := newGateway()
	if _, err := g.Send(numberIn("FR", 12), KindOTP, "x", "a"); err != nil {
		t.Fatal(err)
	}
	j := g.Journal()
	j[0].Country = "XX"
	if g.Journal()[0].Country == "XX" {
		t.Fatal("Journal exposed internal slice")
	}
}
