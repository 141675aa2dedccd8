package loadgen

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"funabuse/internal/httpgate"
	"funabuse/internal/race"
)

// rawConn is one keep-alive loopback connection that writes
// pre-serialised requests and parses each answer in place, allocating
// nothing per request, so a malloc count around it is the server's.
type rawConn struct {
	c  net.Conn
	br *bufio.Reader
}

func dialRaw(tb testing.TB, addr string) *rawConn {
	tb.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = c.Close() })
	return &rawConn{c: c, br: bufio.NewReaderSize(c, 4096)}
}

// roundTrip sends req and reads the answer, returning its status and
// whether it carried ReasonHeader; the body is discarded.
func (rc *rawConn) roundTrip(req []byte) (status int, denied bool, err error) {
	if _, err = rc.c.Write(req); err != nil {
		return 0, false, err
	}
	line, err := rc.br.ReadSlice('\n')
	if err != nil {
		return 0, false, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, false, fmt.Errorf("malformed status line %q", line)
	}
	status = atoi(line[9:12])
	length := 0
	for {
		if line, err = rc.br.ReadSlice('\n'); err != nil {
			return 0, false, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, _ := bytes.Cut(line, []byte(": "))
		switch string(name) {
		case "Content-Length":
			length = atoi(value)
		case httpgate.ReasonHeader:
			denied = true
		}
	}
	_, err = rc.br.Discard(length)
	return status, denied, err
}

// atoi parses a run of decimal digits; the answers it reads are net/http's.
func atoi(b []byte) int {
	n := 0
	for _, c := range b {
		n = n*10 + int(c-'0')
	}
	return n
}

// rawGet is a GET of path from the identity the socket tests replay.
func rawGet(path string, fp uint64) []byte {
	return fmt.Appendf(nil, "GET %s HTTP/1.1\r\nHost: target\r\n%s: %x\r\nX-Forwarded-For: 198.51.100.7\r\nCookie: %s=member-7\r\n\r\n",
		path, httpgate.FingerprintHeader, fp, httpgate.ClientCookie)
}

// socketTargets boots the two servers the socket tests compare: a bare
// http.Server writing ok and nothing else, and StartTarget with one
// fingerprint pre-blocked. It returns their addresses and the admitted
// and denied requests.
func socketTargets(tb testing.TB) (bare, target string, admit, deny []byte) {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write(okBody)
	})}
	go func() { _ = srv.Serve(ln) }()
	tb.Cleanup(func() { _ = srv.Close() })

	tg, err := StartTarget(TargetConfig{
		PathLimit: 1 << 30, PathWindow: time.Minute,
		ProfileLimit: 1 << 30, ProfileWindow: time.Minute,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = tg.Close() })
	const blocked = 0xbad
	tg.Blocks.Block(fmt.Sprintf("fp:%x", blocked), time.Now())
	return ln.Addr().String(), strings.TrimPrefix(tg.URL, "http://"),
		rawGet(PathHold, 0xfeed), rawGet(PathHold, blocked)
}

// TestStartTargetAnswers checks what a client sees from StartTarget: an
// admit is the backend's ok with the sniffed text/plain Content-Type, a
// denial http.Error's answer with the reason header.
func TestStartTargetAnswers(t *testing.T) {
	_, addr, admit, deny := socketTargets(t)
	rc := dialRaw(t, addr)
	for _, c := range []struct {
		req     []byte
		status  int
		reason  string
		body    string
		nosniff string
	}{
		{admit, http.StatusOK, "", "ok\n", ""},
		{deny, http.StatusForbidden, httpgate.ReasonBlocklist, "Forbidden\n", "nosniff"},
	} {
		if _, err := rc.c.Write(c.req); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(rc.br, nil)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		h := resp.Header
		if resp.StatusCode != c.status || string(body) != c.body || h.Get(httpgate.ReasonHeader) != c.reason ||
			h.Get("Content-Type") != "text/plain; charset=utf-8" || h.Get("X-Content-Type-Options") != c.nosniff {
			t.Errorf("answer %d %q %q, want %d %q with reason %q, text/plain and nosniff %q",
				resp.StatusCode, h, body, c.status, c.body, c.reason, c.nosniff)
		}
	}
}

// mallocsPerRequest sends req n times over rc and returns the mean
// mallocs per request, client and server together.
func mallocsPerRequest(t *testing.T, rc *rawConn, req []byte, wantStatus, n int) float64 {
	t.Helper()
	roundTrips := func(n int) {
		for range n {
			status, denied, err := rc.roundTrip(req)
			if err != nil || status != wantStatus || denied != (wantStatus != http.StatusOK) {
				t.Fatalf("answer %d, denied %v (%v), want %d", status, denied, err, wantStatus)
			}
		}
	}
	roundTrips(64) // connection buffers, pools, first-sight keys
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	roundTrips(n)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// TestWrapSocketAllocBudget bounds what StartTarget's gate adds to
// net/http's own per-request allocations, over one keep-alive loopback
// connection each: nothing on an admit (the backend leaves Content-Type
// to sniffing, so net/http clones no header map), and at most 4 on a
// denial — the header map's first bucket and net/http's clone of it,
// taken because the denial writes its headers.
func TestWrapSocketAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	bareAddr, targetAddr, admit, deny := socketTargets(t)
	const n = 2000
	bare := mallocsPerRequest(t, dialRaw(t, bareAddr), admit, http.StatusOK, n)
	tc := dialRaw(t, targetAddr)
	admitted := mallocsPerRequest(t, tc, admit, http.StatusOK, n)
	denied := mallocsPerRequest(t, tc, deny, http.StatusForbidden, n)
	t.Logf("mallocs per request: bare %.2f, admit %.2f, deny %.2f", bare, admitted, denied)
	// The half-malloc slack absorbs the runtime's own background
	// allocations over n requests, not a per-request cost.
	if admitted > bare+0.5 {
		t.Errorf("an admit allocates %.2f over the bare server's %.2f, want 0", admitted-bare, bare)
	}
	if denied > bare+4.5 {
		t.Errorf("a denial allocates %.2f over the bare server's %.2f, want at most 4", denied-bare, bare)
	}
}

// BenchmarkWrapSocket times one request over a keep-alive loopback
// connection: bare is the backend alone on an http.Server (net/http's
// floor), admit and deny go through StartTarget's gate. The difference to
// bare is the gate's share of the socket path.
func BenchmarkWrapSocket(b *testing.B) {
	bareAddr, targetAddr, admit, deny := socketTargets(b)
	for _, c := range []struct {
		name   string
		addr   string
		req    []byte
		status int
	}{
		{"bare", bareAddr, admit, http.StatusOK},
		{"admit", targetAddr, admit, http.StatusOK},
		{"deny", targetAddr, deny, http.StatusForbidden},
	} {
		b.Run(c.name, func(b *testing.B) {
			rc := dialRaw(b, c.addr)
			b.ReportAllocs()
			for b.Loop() {
				if status, _, err := rc.roundTrip(c.req); err != nil || status != c.status {
					b.Fatalf("answer %d (%v), want %d", status, err, c.status)
				}
			}
		})
	}
}
