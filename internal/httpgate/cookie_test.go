package httpgate

import (
	"net/http"
	"testing"
)

// netHTTPCookie is the contract cookieValue is held to: r.Cookie's value,
// or "" when net/http finds no such cookie.
func netHTTPCookie(r *http.Request, name string) string {
	c, err := r.Cookie(name)
	if err != nil {
		return ""
	}
	return c.Value
}

// cookieCases are Cookie header lines at the scan's edges, among them
// every line on which the gate once read a different client key than the
// backend behind it.
var cookieCases = []struct{ line, want string }{
	{"sid =abc", "abc"},                   // blank before '=': still sid
	{"sid\t=abc", "abc"},                  // so is a tab
	{"sid=a\\b; sid=ok", "ok"},            // a backslash voids the first value
	{"sid=a\x7fb; sid=ok", "ok"},          // so does DEL
	{`sid=a"b; sid=ok`, "ok"},             // and an embedded quote
	{"sid; sid=x", ""},                    // a bare name is an empty cookie
	{`sid="quoted"`, "quoted"},            // quotes are stripped
	{`sid="`, ""},                         // a lone quote is not a quoted value
	{"a=1;  sid=v2 ;b=2", "v2"},           // blanks around a part
	{"\vsid=abc", ""},                     // only ASCII blanks are trimmed
	{"sid= abc", " abc"},                  // the value itself is not trimmed
	{"sidx=1; xsid=2; SID=3; sid=4", "4"}, // names match exactly
}

// TestCookieValueMatchesNetHTTP replays the edge-case header lines
// against both net/http and the attribution scan.
func TestCookieValueMatchesNetHTTP(t *testing.T) {
	for _, tc := range cookieCases {
		r := &http.Request{Header: http.Header{"Cookie": {tc.line}}}
		if want := netHTTPCookie(r, ClientCookie); want != tc.want {
			t.Fatalf("net/http reads %q from %q, the table says %q", want, tc.line, tc.want)
		}
		if got := cookieValue(r, ClientCookie); got != tc.want {
			t.Errorf("cookieValue(%q) = %q, net/http reads %q", tc.line, got, tc.want)
		}
	}
}

// FuzzCookieValue holds cookieValue to r.Cookie on arbitrary Cookie
// headers, sent as one line or split across two.
func FuzzCookieValue(f *testing.F) {
	for _, tc := range cookieCases {
		f.Add(tc.line, "")
	}
	f.Add("a=1", "sid=2")
	f.Add("sid=\x00", " sid=ok ")
	f.Fuzz(func(t *testing.T, a, b string) {
		lines := []string{a}
		if b != "" {
			lines = append(lines, b)
		}
		r := &http.Request{Header: http.Header{"Cookie": lines}}
		if got, want := cookieValue(r, ClientCookie), netHTTPCookie(r, ClientCookie); got != want {
			t.Fatalf("cookieValue(%q) = %q, net/http reads %q", lines, got, want)
		}
	})
}

// TestCookieValueZeroAllocs pins the in-place scan, including the skip of
// a malformed candidate.
func TestCookieValueZeroAllocs(t *testing.T) {
	r := &http.Request{Header: http.Header{"Cookie": {"theme=dark; sid=a\\b; sid =user-42"}}}
	if avg := testing.AllocsPerRun(256, func() {
		if cookieValue(r, ClientCookie) != "user-42" {
			t.Fatal("wrong value")
		}
	}); avg != 0 {
		t.Fatalf("cookieValue allocates %v/op, want 0", avg)
	}
}
