package httpgate

import (
	"bytes"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"net/textproto"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"funabuse/internal/resilience"
	"funabuse/internal/simclock"
)

// referenceWrap is Wrap written with Header().Set and http.Error, the
// response Wrap's prebuilt header values must reproduce.
func referenceWrap(g *Gate, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d := g.Decide(r, g.Client(r))
		if d.Degraded != 0 {
			w.Header().Set(DegradedHeader, degradedNames[d.Degraded])
		}
		if d.Reason != "" {
			w.Header().Set(ReasonHeader, d.Reason)
			http.Error(w, http.StatusText(d.Status), d.Status)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// setOKBackend names its Content-Type, as the backends did before they
// left it to net/http's sniffing; sniffOKBackend leaves it.
var (
	setOKBackend = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	sniffOKBackend = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("ok\n"))
	})
)

// wireCase is one verdict Wrap can answer with: the steps a stub gate
// runs, each a table row whose call denies, or panics when broken, and
// the fail policy of the broken rows' layers.
type wireCase struct {
	name   string
	rows   []int
	broken bool
	policy resilience.Policy
}

// stubGate builds a gate whose pipeline is exactly c's rows.
func stubGate(c wireCase) *Gate {
	g := New(Config{Clock: simclock.NewManual(t0)})
	for _, i := range c.rows {
		st := layerTable[i]
		st.needsKey = false
		deny := !st.passVal
		st.call = func(*Gate, *decisionCtx) (bool, error) {
			if c.broken {
				panic("layer down")
			}
			return deny, nil
		}
		g.steps = append(g.steps, st)
		g.guards[st.layer].policy = c.policy
	}
	return g
}

// wireCases covers every reason and status pair the layer table can emit
// (RequireFingerprint's denial is the challenge row's pair), degraded
// admits with one and two layers, and a degraded denial.
func wireCases() []wireCase {
	var cs []wireCase
	for i, row := range layerTable {
		cs = append(cs, wireCase{name: row.reason, rows: []int{i}})
	}
	rowOf := func(l Layer) int {
		for i, row := range layerTable {
			if row.layer == l {
				return i
			}
		}
		panic("no row")
	}
	blocklist, path, resource := rowOf(LayerBlocklist), rowOf(LayerPath), rowOf(LayerResource)
	return append(cs,
		wireCase{name: "degraded-admit", rows: []int{blocklist}, broken: true},
		wireCase{name: "degraded-admit-two", rows: []int{blocklist, path}, broken: true},
		wireCase{name: "degraded-deny", rows: []int{resource}, broken: true, policy: resilience.FailClosed},
	)
}

// wireResponse is what a client sees of one answer, Date aside.
type wireResponse struct {
	status int
	header http.Header
	body   []byte
}

func fetch(c *http.Client, url string) (wireResponse, error) {
	req, err := http.NewRequest(http.MethodGet, url+"/booking/1", nil)
	if err != nil {
		return wireResponse{}, err
	}
	req.AddCookie(&http.Cookie{Name: ClientCookie, Value: "alice"})
	resp, err := c.Do(req)
	if err != nil {
		return wireResponse{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	resp.Header.Del("Date")
	return wireResponse{resp.StatusCode, resp.Header, body}, err
}

// addOuter serves next, then Adds to every key Wrap assigns, as an outer
// middleware decorating the response might. Around a denial it first
// sets a stale Content-Length, which the denial must drop as http.Error
// does.
func addOuter(next http.Handler, denies bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if denies {
			w.Header().Set("Content-Length", "999")
		}
		next.ServeHTTP(w, r)
		h := w.Header()
		for _, k := range []string{ReasonHeader, DegradedHeader, "Content-Type", "X-Content-Type-Options"} {
			h.Add(k, "outer")
		}
	})
}

// TestWrapMatchesHTTPError holds Wrap's responses, over a real server, to
// what Header().Set + http.Error and a backend setting its own
// Content-Type produce: status, every header but Date, and body. The
// same servers behind an outer handler that Adds to Wrap's keys, hit
// concurrently, must leave the shared prebuilt values untouched (under
// -race too).
func TestWrapMatchesHTTPError(t *testing.T) {
	c := &http.Client{Transport: &http.Transport{}}
	defer c.CloseIdleConnections()
	for _, wc := range wireCases() {
		t.Run(wc.name, func(t *testing.T) {
			denies := !wc.broken || wc.policy == resilience.FailClosed
			got := httptest.NewServer(addOuter(stubGate(wc).Wrap(sniffOKBackend), denies))
			defer got.Close()
			want := httptest.NewServer(addOuter(referenceWrap(stubGate(wc), setOKBackend), denies))
			defer want.Close()

			var wg sync.WaitGroup
			for range 4 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range 8 {
						g, err := fetch(c, got.URL)
						if err != nil {
							t.Error(err)
							return
						}
						w, err := fetch(c, want.URL)
						if err != nil {
							t.Error(err)
							return
						}
						if g.status != w.status || !maps.EqualFunc(g.header, w.header, slices.Equal) || !bytes.Equal(g.body, w.body) {
							t.Errorf("Wrap answered %d %q %q, reference %d %q %q",
								g.status, g.header, g.body, w.status, w.header, w.body)
							return
						}
					}
				}()
			}
			wg.Wait()
			w, err := fetch(c, want.URL)
			if err != nil {
				t.Fatal(err)
			}
			if wc.broken != (w.header.Get(DegradedHeader) != "") {
				t.Errorf("reference degraded header %q, want one iff a layer is broken", w.header.Get(DegradedHeader))
			}
		})
	}
	checkPrebuilt(t)
}

// checkPrebuilt holds every shared value Wrap writes to what it was built
// as, so no Add ever wrote into one: the one-element header views have
// len == cap, the arrays behind them still hold the table's reasons and
// the comma-joined layer names of each mask, and each row's body is
// http.Error's for its status.
func checkPrebuilt(t *testing.T) {
	t.Helper()
	check := func(what string, v []string, want string) {
		if len(v) != 1 || cap(v) != 1 || v[0] != want {
			t.Errorf("%s = %q (len %d, cap %d), want [%q] with len == cap", what, v, len(v), cap(v), want)
		}
	}
	for i, row := range layerTable {
		check("reason "+row.reason, headerValue(reasons[:], i), row.reason)
		if got, want := string(denialBodies[i]), http.StatusText(row.status)+"\n"; got != want {
			t.Errorf("%s denial body %q, want %q", row.reason, got, want)
		}
	}
	for mask := 1; mask < len(degradedNames); mask++ {
		var names []string
		for l := LayerBlocklist; l < numLayers; l++ {
			if mask&(1<<l) != 0 {
				names = append(names, l.String())
			}
		}
		check("degraded mask "+strconv.Itoa(mask), headerValue(degradedNames[:], mask), strings.Join(names, ","))
	}
	check("textPlain", textPlain, "text/plain; charset=utf-8")
	check("noSniff", noSniff, "nosniff")
	for _, k := range []string{ReasonHeader, DegradedHeader, "Content-Type", "X-Content-Type-Options", "Content-Length"} {
		if textproto.CanonicalMIMEHeaderKey(k) != k {
			t.Errorf("Wrap assigns header key %q, which is not canonical", k)
		}
	}
}
