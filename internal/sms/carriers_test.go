package sms

import (
	"errors"
	"math"
	"testing"
	"time"

	"funabuse/internal/geo"
	"funabuse/internal/simrand"
)

func chainFixture() *Chain {
	return NewChain(simrand.New(1), geo.Default())
}

func msgTo(country, actor string) Message {
	c := geo.Default().MustLookup(country)
	return Message{
		To:      geo.PlanFor(c).Random(simrand.New(2)),
		Country: country,
		Kind:    KindBoardingPass,
		CostUSD: c.TerminationUSD,
		ActorID: actor,
	}
}

func TestSettleSplitsMoney(t *testing.T) {
	c := chainFixture()
	c.RegisterTerminator("UZ", false, t0)
	s, err := c.Settle(msgTo("UZ", "legit"), t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	uz := geo.Default().MustLookup("UZ")
	if math.Abs(s.TerminationFeeUSD-uz.TerminationUSD*0.75) > 1e-9 {
		t.Fatalf("termination fee %v", s.TerminationFeeUSD)
	}
	if math.Abs(s.TransitFeeUSD-uz.TerminationUSD*0.10) > 1e-9 {
		t.Fatalf("transit fee %v", s.TransitFeeUSD)
	}
	if s.KickbackUSD != 0 {
		t.Fatal("honest terminator paid a kickback")
	}
	if !s.Delivered {
		t.Fatal("honest terminator failed to deliver")
	}
}

func TestNoTerminatorError(t *testing.T) {
	c := chainFixture()
	_, err := c.Settle(msgTo("UZ", "x"), t0)
	if !errors.Is(err, ErrNoTerminator) {
		t.Fatalf("err = %v", err)
	}
}

func TestColludingTerminatorKicksBackAndShortStops(t *testing.T) {
	c := chainFixture()
	c.RegisterTerminator("UZ", true, t0)
	var kick float64
	delivered := 0
	n := 2000
	for range n {
		s, err := c.Settle(msgTo("UZ", "attacker"), t0.Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		kick += s.KickbackUSD
		if s.Delivered {
			delivered++
		}
	}
	if kick <= 0 {
		t.Fatal("no kickback accrued")
	}
	if got := c.KickbackTo("attacker"); math.Abs(got-kick) > 1e-9 {
		t.Fatalf("KickbackTo = %v, want %v", got, kick)
	}
	// Short-stopping: roughly half the traffic never reaches a handset.
	rate := float64(delivered) / float64(n)
	if rate < 0.4 || rate > 0.6 {
		t.Fatalf("delivery rate %v, want ~0.5", rate)
	}
	if got := c.DeliveryRate(); math.Abs(got-rate) > 1e-9 {
		t.Fatalf("DeliveryRate = %v", got)
	}
}

func TestColludingTerminatorWinsRoute(t *testing.T) {
	c := chainFixture()
	honest := c.RegisterTerminator("UZ", false, t0)
	colluding := c.RegisterTerminator("UZ", true, t0)
	for range 50 {
		s, err := c.Settle(msgTo("UZ", "attacker"), t0.Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		if s.TerminatorID != colluding.ID {
			t.Fatalf("route went to %s, want colluding %s (honest %s)", s.TerminatorID, colluding.ID, honest.ID)
		}
	}
}

func TestValidationAgeExcludesYoungTerminators(t *testing.T) {
	c := chainFixture()
	c.SetValidationAge(30 * 24 * time.Hour)
	young := c.RegisterTerminator("UZ", true, t0)
	_ = young
	// A week after registration the young terminator is ineligible.
	if _, err := c.Settle(msgTo("UZ", "attacker"), t0.Add(7*24*time.Hour)); !errors.Is(err, ErrNoTerminator) {
		t.Fatalf("young terminator settled: err = %v", err)
	}
	// An established honest terminator carries the traffic instead.
	old := c.RegisterTerminator("UZ", false, t0.Add(-365*24*time.Hour))
	s, err := c.Settle(msgTo("UZ", "attacker"), t0.Add(7*24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if s.TerminatorID != old.ID {
		t.Fatalf("route went to %s", s.TerminatorID)
	}
	if s.KickbackUSD != 0 {
		t.Fatal("honest route paid a kickback")
	}
	// Once the young operator matures it becomes eligible again.
	s, err = c.Settle(msgTo("UZ", "attacker"), t0.Add(40*24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if s.KickbackUSD == 0 {
		t.Fatal("matured colluding terminator paid no kickback")
	}
}

func TestWithholdingFreezesFlaggedTraffic(t *testing.T) {
	c := chainFixture()
	c.RegisterTerminator("UZ", true, t0)
	c.SetWithholdFlagged(true)

	// Unflagged traffic pays out.
	if _, err := c.Settle(msgTo("UZ", "attacker"), t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	before := c.KickbackTo("attacker")
	if before <= 0 {
		t.Fatal("no kickback before flagging")
	}
	// After the application flags the actor, compensation freezes.
	c.FlagActor("attacker")
	for range 100 {
		if _, err := c.Settle(msgTo("UZ", "attacker"), t0.Add(2*time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.KickbackTo("attacker"); got != before {
		t.Fatalf("kickbacks grew after flagging: %v -> %v", before, got)
	}
	if c.WithheldUSD() <= 0 {
		t.Fatal("no fees withheld")
	}
}

func TestTerminatorReportsExposeShortStopping(t *testing.T) {
	c := chainFixture()
	honest := c.RegisterTerminator("GB", false, t0)
	colluding := c.RegisterTerminator("UZ", true, t0)
	for range 400 {
		if _, err := c.Settle(msgTo("GB", "legit"), t0.Add(time.Hour)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Settle(msgTo("UZ", "attacker"), t0.Add(time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	reports := c.TerminatorReports()
	if len(reports) != 2 {
		t.Fatalf("reports %d", len(reports))
	}
	byID := map[string]TerminatorReport{}
	for _, r := range reports {
		byID[r.OperatorID] = r
	}
	if got := byID[honest.ID].DeliveryRate; got != 1 {
		t.Fatalf("honest delivery rate %v", got)
	}
	if got := byID[colluding.ID].DeliveryRate; got > 0.65 {
		t.Fatalf("colluding delivery rate %v, short-stopping should show", got)
	}
	// The audit signal: high fees with sub-unity delivery.
	if byID[colluding.ID].FeesUSD <= 0 {
		t.Fatal("colluding terminator earned nothing")
	}
}

func TestOperatorLookupAndClassString(t *testing.T) {
	c := chainFixture()
	op := c.RegisterTerminator("FR", false, t0)
	got, ok := c.Operator(op.ID)
	if !ok || got.Country != "FR" {
		t.Fatal("operator lookup failed")
	}
	if OperatorPrimary.String() != "primary" || OperatorTransit.String() != "transit" ||
		OperatorTerminating.String() != "terminating" {
		t.Fatal("class strings wrong")
	}
	if OperatorClass(9).String() != "OperatorClass(9)" {
		t.Fatal("unknown class string wrong")
	}
}
