package detect

import (
	"testing"
	"time"

	"funabuse/internal/booking"
	"funabuse/internal/names"
	"funabuse/internal/simrand"
)

var base = time.Date(2024, time.October, 1, 0, 0, 0, 0, time.UTC)

func acceptedRecord(id booking.HoldID, actor string, passengers ...names.Identity) booking.Record {
	return booking.Record{
		Time:       base,
		Flight:     "B200",
		NiP:        len(passengers),
		Outcome:    booking.OutcomeAccepted,
		ActorID:    actor,
		HoldID:     id,
		Passengers: passengers,
	}
}

func TestRotatingBirthdateDetected(t *testing.T) {
	// Airline B pattern: fixed lead name, systematically rotating birthdate.
	pool := names.NewPool(simrand.New(1), 4)
	var records []booking.Record
	for i := range 10 {
		records = append(records, acceptedRecord(booking.HoldID(i+1), "bot-1", pool.RotatingBirthdate()))
	}
	findings := NewNamePatternDetector(NamePatternConfig{}).Analyze(records)
	if len(findings) == 0 {
		t.Fatal("no findings")
	}
	if findings[0].Pattern != PatternRotatingBirthdate {
		t.Fatalf("top finding %+v", findings[0])
	}
	if findings[0].Reservations != 10 {
		t.Fatalf("reservation span %d", findings[0].Reservations)
	}
}

func TestNameReuseDetected(t *testing.T) {
	// Airline C pattern: same fixed identity set reused across bookings.
	pool := names.NewPool(simrand.New(2), 3)
	fixed := pool.Permuted(3) // same three identities every time
	var records []booking.Record
	for i := range 8 {
		records = append(records, acceptedRecord(booking.HoldID(i+1), "manual-1", fixed...))
	}
	findings := NewNamePatternDetector(NamePatternConfig{}).Analyze(records)
	reuse := 0
	for _, f := range findings {
		if f.Pattern == PatternNameReuse || f.Pattern == PatternRotatingBirthdate {
			reuse++
		}
	}
	if reuse != 3 {
		t.Fatalf("expected 3 reuse findings, got %d (%+v)", reuse, findings)
	}
	// Same birthdates every time: must not be classified as rotating.
	for _, f := range findings {
		if f.Pattern == PatternRotatingBirthdate {
			t.Fatalf("static identity classified rotating: %+v", f)
		}
	}
}

func TestTypoClusterDetected(t *testing.T) {
	r := simrand.New(3)
	id := names.Identity{First: "CHARLOTTE", Last: "ANDERSON"}
	var records []booking.Record
	// Correct spelling twice, then several one-edit typo variants.
	records = append(records, acceptedRecord(1, "manual-2", id))
	records = append(records, acceptedRecord(2, "manual-2", id))
	for i := range 4 {
		records = append(records, acceptedRecord(booking.HoldID(3+i), "manual-2", names.Misspell(r, id)))
	}
	findings := NewNamePatternDetector(NamePatternConfig{}).Analyze(records)
	found := false
	for _, f := range findings {
		if f.Pattern == PatternTypoCluster {
			found = true
			if f.Reservations < 3 {
				t.Fatalf("cluster span %d", f.Reservations)
			}
		}
	}
	if !found {
		t.Fatalf("typo cluster not detected: %+v", findings)
	}
}

func TestLegitimateTrafficYieldsNoFindings(t *testing.T) {
	g := names.NewGenerator(simrand.New(4))
	var records []booking.Record
	for i := range 200 {
		records = append(records, acceptedRecord(booking.HoldID(i+1), "human", g.Realistic()))
	}
	findings := NewNamePatternDetector(NamePatternConfig{}).Analyze(records)
	// Realistic generator can produce coincidental repeats; with 200 draws
	// from 40x40 name combinations, 5+ repeats of one name are essentially
	// impossible, and typo clusters require near-identical names with 3+
	// reservations.
	for _, f := range findings {
		if f.Pattern != PatternTypoCluster {
			t.Fatalf("legitimate traffic flagged: %+v", f)
		}
	}
}

func TestRejectedRecordsIgnored(t *testing.T) {
	pool := names.NewPool(simrand.New(5), 2)
	var records []booking.Record
	for i := range 10 {
		r := acceptedRecord(booking.HoldID(i+1), "bot", pool.RotatingBirthdate())
		r.Outcome = booking.OutcomeRejectedCap
		records = append(records, r)
	}
	findings := NewNamePatternDetector(NamePatternConfig{}).Analyze(records)
	if len(findings) != 0 {
		t.Fatalf("rejected records produced findings: %+v", findings)
	}
}

func TestSuspectActors(t *testing.T) {
	pool := names.NewPool(simrand.New(6), 2)
	g := names.NewGenerator(simrand.New(7))
	var records []booking.Record
	for i := range 8 {
		records = append(records, acceptedRecord(booking.HoldID(i+1), "bot-7", pool.RotatingBirthdate()))
	}
	records = append(records, acceptedRecord(100, "human-1", g.Realistic()))
	det := NewNamePatternDetector(NamePatternConfig{})
	findings := det.Analyze(records)
	suspects := SuspectActors(records, findings)
	if len(suspects) != 1 || suspects[0] != "bot-7" {
		t.Fatalf("suspects %v", suspects)
	}
}

func TestNamePatternString(t *testing.T) {
	if PatternRotatingBirthdate.String() != "rotating-birthdate" ||
		PatternNameReuse.String() != "name-reuse" ||
		PatternTypoCluster.String() != "typo-cluster" ||
		NamePattern(9).String() != "unknown" {
		t.Fatal("NamePattern.String wrong")
	}
}

func TestFindingsSortedBySpan(t *testing.T) {
	poolA := names.NewPool(simrand.New(8), 1)
	poolB := names.NewPool(simrand.New(9), 1)
	var records []booking.Record
	id := booking.HoldID(1)
	for range 5 {
		records = append(records, acceptedRecord(id, "a", poolA.RotatingBirthdate()))
		id++
	}
	for range 12 {
		records = append(records, acceptedRecord(id, "b", poolB.RotatingBirthdate()))
		id++
	}
	findings := NewNamePatternDetector(NamePatternConfig{}).Analyze(records)
	if len(findings) < 2 {
		t.Fatalf("findings %+v", findings)
	}
	if findings[0].Reservations < findings[1].Reservations {
		t.Fatal("findings not sorted by span")
	}
}

// benchmarkRecords is the BenchmarkNamePatternAnalyze input: 5,000 accepted
// holds of one to four realistic passengers each.
func benchmarkRecords() []booking.Record {
	g := names.NewGenerator(simrand.New(4))
	rng := simrand.New(5)
	records := make([]booking.Record, 0, 5000)
	for i := range 5000 {
		nip := 1 + rng.Intn(4)
		ps := make([]names.Identity, nip)
		for j := range ps {
			ps[j] = g.Realistic()
		}
		records = append(records, booking.Record{
			HoldID: booking.HoldID(i + 1), NiP: nip,
			Outcome: booking.OutcomeAccepted, Passengers: ps,
		})
	}
	return records
}

// attackRecords is a small journal carrying every case-study-B signature at
// once — rotating birthdates, a reused fixed party, misspelt variants — plus
// the shapes the per-name bookkeeping must count once: a hold journalled
// twice, a party naming one passenger twice, a rejected attempt.
func attackRecords() []booking.Record {
	rng := simrand.New(6)
	pool := names.NewPool(rng.Derive("pool"), 6)
	var records []booking.Record
	next := booking.HoldID(9000)
	add := func(outcome booking.Outcome, ps ...names.Identity) {
		next++
		records = append(records, booking.Record{HoldID: next, NiP: len(ps), Outcome: outcome, Passengers: ps})
	}
	for range 12 {
		add(booking.OutcomeAccepted, pool.OverlappingParty(3)...)
	}
	fixed := pool.Permuted(3)
	for range 8 {
		add(booking.OutcomeAccepted, fixed...)
	}
	reused := names.NewPool(rng.Derive("reused"), 2).Permuted(2)
	for range 6 {
		add(booking.OutcomeAccepted, reused...)
	}
	for range 10 {
		ps := pool.Permuted(2)
		add(booking.OutcomeAccepted, names.Misspell(rng, ps[0]), ps[1])
	}
	records = append(records, records[len(records)-1])
	add(booking.OutcomeAccepted, fixed[0], fixed[0])
	add(booking.OutcomeRejectedCap, pool.OverlappingParty(9)...)
	return records
}

// TestNamePatternAnalyzeGolden pins Analyze's findings — order, keys, spans
// and Detail strings — as the map-per-name implementation produced them, so
// the leaner bookkeeping and the length pre-filter in typoClusters cannot
// move a finding.
func TestNamePatternAnalyzeGolden(t *testing.T) {
	const rot, reuse, typo = PatternRotatingBirthdate, PatternNameReuse, PatternTypoCluster
	cases := []struct {
		name    string
		records []booking.Record
		want    []NameFinding
	}{
		{"benchmark input", benchmarkRecords(), []NameFinding{
			{typo, "ELIZABETH WANG", 5, "variants: 3"},
			{typo, "ERIC BRADLEY", 4, "variants: 2"},
			{typo, "KATHERINE HANSEN", 4, "variants: 2"},
			{typo, "MICHAEL BERRY", 4, "variants: 2"},
			{typo, "AISHA BURNS", 3, "variants: 2"},
			{typo, "ANDRE COLE", 3, "variants: 2"},
			{typo, "ANDRE REID", 3, "variants: 2"},
			{typo, "BENJAMIN LE", 3, "variants: 2"},
			{typo, "CARLOS HANSEN", 3, "variants: 2"},
			{typo, "CATHERINE PRICE", 3, "variants: 3"},
			{typo, "DEBORAH KELLEY", 3, "variants: 2"},
			{typo, "DEBORAH ROSE", 3, "variants: 2"},
			{typo, "ELENA DAY", 3, "variants: 2"},
			{typo, "ERIC MILLER", 3, "variants: 2"},
			{typo, "ERIC PATEL", 3, "variants: 2"},
			{typo, "ERIC SULLIVAN", 3, "variants: 2"},
			{typo, "FREJA WANG", 3, "variants: 2"},
			{typo, "GARY GONZALEZ", 3, "variants: 2"},
			{typo, "GIULIA WANG", 3, "variants: 2"},
			{typo, "HANA BOYD", 3, "variants: 2"},
			{typo, "HANA VEGA", 3, "variants: 2"},
			{typo, "ISABELLA REED", 3, "variants: 2"},
			{typo, "KATYA SCHMIDT", 3, "variants: 2"},
			{typo, "KEVIN KELLEY", 3, "variants: 2"},
			{typo, "MELISSA HANSEN", 3, "variants: 2"},
			{typo, "RUTH FERNANDEZ", 3, "variants: 2"},
			{typo, "SVEN GRAY", 3, "variants: 2"},
			{typo, "YUI ARNOLD", 3, "variants: 2"},
			{typo, "YUI PATEL", 3, "variants: 2"},
		}},
		{"attack journal", attackRecords(), []NameFinding{
			{typo, "INGRID FOX", 18, "variants: 2"},
			{rot, "INGRID FOX", 17, "distinct birthdates: 5"},
			{typo, "ANDREW NELSO NRIVERA", 15, "variants: 2"},
			{rot, "ANDREW NELSON RIVERA", 14, "distinct birthdates: 6"},
			{typo, "ANJALI-LINDA STEPHENS", 14, "variants: 4"},
			{typo, "YUKI TORES", 14, "variants: 2"},
			{rot, "YUKI TORRES", 12, "distinct birthdates: 12"},
			{rot, "ANJALI-LINDA STEPHENS", 11, "distinct birthdates: 4"},
			{rot, "OLIVIA JOHNSON", 9, "distinct birthdates: 7"},
			{reuse, "IRINA ORTEGA", 6, ""},
			{reuse, "MIGUEL MALDONADO", 6, ""},
			{typo, "KAATHERINE MENDEZ", 6, "variants: 2"},
			{rot, "KATHERINE MENDEZ", 5, "distinct birthdates: 7"},
		}},
	}
	for _, tc := range cases {
		got := NewNamePatternDetector(NamePatternConfig{}).Analyze(tc.records)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: %d findings, want %d: %+v", tc.name, len(got), len(tc.want), got)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: finding %d = %+v, want %+v", tc.name, i, got[i], tc.want[i])
			}
		}
	}
}
