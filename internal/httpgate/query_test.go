package httpgate

import (
	"net/http"
	"net/url"
	"testing"
)

// FuzzQueryValue holds QueryValue to its contract: whatever the raw query,
// it answers exactly what net/url's parse-then-Get answers. The seeds cover
// the scan's edges — no query, a bare key, an empty value, repeats, empty
// pairs, an escaped key, the three bytes that force the fallback, an empty
// key and a value holding '='.
func FuzzQueryValue(f *testing.F) {
	for _, raw := range []string{
		"", "pnr", "pnr=", "a=1&pnr=B&pnr=C", "&&pnr=x&", "p%6Er=1",
		"pnr=a+b", "pnr=a;b", "=x&pnr=y", "pnr=a=b",
	} {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		r := &http.Request{URL: &url.URL{RawQuery: raw}}
		for _, name := range []string{"pnr", ""} {
			if got, want := QueryValue(r, name), r.URL.Query().Get(name); got != want {
				t.Fatalf("QueryValue(%q, %q) = %q, net/url answers %q", raw, name, got, want)
			}
		}
	})
}

// TestQueryValueZeroAllocs pins the in-place scan: an escape-free query
// costs no allocation, found or not.
func TestQueryValueZeroAllocs(t *testing.T) {
	r := &http.Request{URL: &url.URL{RawQuery: "cabin=Y&pnr=PNR00042&lang=en"}}
	if avg := testing.AllocsPerRun(256, func() {
		if QueryValue(r, "pnr") != "PNR00042" || QueryValue(r, "seat") != "" {
			t.Fatal("wrong value")
		}
	}); avg != 0 {
		t.Fatalf("QueryValue allocates %v/op, want 0", avg)
	}
}
