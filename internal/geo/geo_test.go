package geo

import (
	"fmt"
	"testing"
	"testing/quick"

	"funabuse/internal/simrand"
)

func TestDefaultRegistryHasTable1Countries(t *testing.T) {
	reg := Default()
	for _, code := range []string{"UZ", "IR", "KG", "JO", "NG", "KH", "SG", "GB", "CN", "TH"} {
		if _, ok := reg.Lookup(code); !ok {
			t.Errorf("registry missing Table I country %s", code)
		}
	}
}

func TestDefaultRegistryLargeEnoughForCaseC(t *testing.T) {
	if got := Default().Len(); got < 42 {
		t.Fatalf("registry has %d countries, need >= 42 for case study C", got)
	}
}

func TestNewRegistryRejectsDuplicates(t *testing.T) {
	_, err := NewRegistry([]Country{{Code: "XX", Name: "A"}, {Code: "XX", Name: "B"}})
	if err == nil {
		t.Fatal("duplicate code accepted")
	}
}

func TestNewRegistryRejectsEmptyCode(t *testing.T) {
	if _, err := NewRegistry([]Country{{Name: "Nowhere"}}); err == nil {
		t.Fatal("empty code accepted")
	}
}

func TestHighCostBandContainsPumpTargets(t *testing.T) {
	reg := Default()
	// The six disproportionately-targeted Table I countries must be in the
	// expensive band; the four ordinary ones must not.
	for _, c := range []string{"UZ", "IR", "KG", "JO", "NG", "KH"} {
		if !reg.MustLookup(c).HighCost() {
			t.Errorf("%s not in high-cost band", c)
		}
	}
	for _, c := range []string{"SG", "GB", "CN", "TH"} {
		if reg.MustLookup(c).HighCost() {
			t.Errorf("%s unexpectedly in high-cost band", c)
		}
	}
}

func TestPremiumAlwaysAboveOrdinary(t *testing.T) {
	for _, c := range Default().All() {
		if c.PremiumUSD <= c.TerminationUSD {
			t.Errorf("%s: premium %v <= ordinary %v", c.Code, c.PremiumUSD, c.TerminationUSD)
		}
		if c.RevenueShare < 0 || c.RevenueShare > 1 {
			t.Errorf("%s: revenue share %v out of [0,1]", c.Code, c.RevenueShare)
		}
	}
}

func TestCodesSortedAndCopied(t *testing.T) {
	reg := Default()
	codes := reg.Codes()
	for i := 1; i < len(codes); i++ {
		if codes[i-1] >= codes[i] {
			t.Fatalf("codes not strictly sorted at %d: %v", i, codes[i-1:i+1])
		}
	}
	codes[0] = "zz"
	if reg.Codes()[0] == "zz" {
		t.Fatal("Codes() exposed internal slice")
	}
}

func TestMustLookupPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustLookup of unknown code did not panic")
		}
	}()
	Default().MustLookup("ZZ")
}

func TestNumberPlanGeneratesValidNumbers(t *testing.T) {
	reg := Default()
	r := simrand.New(1)
	for _, code := range []string{"UZ", "GB", "US", "SG"} {
		plan := PlanFor(reg.MustLookup(code))
		for range 100 {
			n := plan.Random(r)
			if err := validateMSISDN(n); err != nil {
				t.Fatalf("%s: %v", code, err)
			}
			if plan.IsPremium(n) {
				t.Fatalf("%s: ordinary number %s classified premium", code, n)
			}
			got, ok := reg.CountryOf(n)
			if !ok {
				t.Fatalf("%s: CountryOf(%s) failed", code, n)
			}
			if code == "US" || code == "CA" {
				if got.DialPrefix != "1" {
					t.Fatalf("NANP number resolved to %s", got.Code)
				}
			} else if got.Code != code {
				t.Fatalf("CountryOf(%s) = %s, want %s", n, got.Code, code)
			}
		}
	}
}

func TestPremiumNumbersClassified(t *testing.T) {
	r := simrand.New(2)
	plan := PlanFor(Default().MustLookup("UZ"))
	for range 100 {
		n := plan.RandomPremium(r)
		if !plan.IsPremium(n) {
			t.Fatalf("premium number %s not classified premium", n)
		}
		if err := validateMSISDN(n); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMSISDNLengthProperty(t *testing.T) {
	reg := Default()
	all := reg.All()
	f := func(seed uint64, idx uint8, premium bool) bool {
		c := all[int(idx)%len(all)]
		plan := PlanFor(c)
		r := simrand.New(seed)
		var n MSISDN
		if premium {
			n = plan.RandomPremium(r)
		} else {
			n = plan.Random(r)
		}
		return len(n) == len(c.DialPrefix)+c.MobileDigits && validateMSISDN(n) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCountryOfUnknownPrefix(t *testing.T) {
	if _, ok := Default().CountryOf("0000000000"); ok {
		t.Fatal("unknown prefix resolved")
	}
}

// validateMSISDN checks basic shape: digits only, plausible length. It is
// the oracle the number-generation tests hold their output to.
func validateMSISDN(n MSISDN) error {
	s := string(n)
	if len(s) < 7 || len(s) > 15 {
		return fmt.Errorf("geo: MSISDN %q has invalid length %d", s, len(s))
	}
	for i := range len(s) {
		if s[i] < '0' || s[i] > '9' {
			return fmt.Errorf("geo: MSISDN %q contains non-digit %q", s, s[i])
		}
	}
	return nil
}

func TestValidateMSISDN(t *testing.T) {
	cases := []struct {
		in MSISDN
		ok bool
	}{
		{"998901234567", true},
		{"12345", false},            // too short
		{"1234567890123456", false}, // too long
		{"99890a234567", false},     // non-digit
	}
	for _, tc := range cases {
		err := validateMSISDN(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("validateMSISDN(%q) error = %v, want ok=%v", tc.in, err, tc.ok)
		}
	}
}

func TestRegionString(t *testing.T) {
	if RegionCentralAsia.String() != "Central Asia" {
		t.Fatalf("RegionCentralAsia.String() = %q", RegionCentralAsia.String())
	}
	if Region(99).String() != "Region(99)" {
		t.Fatalf("unknown region String() = %q", Region(99).String())
	}
}

func TestAllReturnsCopiesInOrder(t *testing.T) {
	reg := Default()
	all := reg.All()
	if len(all) != reg.Len() {
		t.Fatalf("All() length %d != Len() %d", len(all), reg.Len())
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Code >= all[i].Code {
			t.Fatal("All() not in code order")
		}
	}
}
