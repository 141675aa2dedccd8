package obs

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

func TestMuxMetricsAndHealth(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("mux_total").v.Add(9)
	srv := httptest.NewServer(NewMux(ServeConfig{Registry: reg}))
	defer srv.Close()

	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	samples, err := ParseText(strings.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics unparseable: %v\n%s", err, body)
	}
	if got := sampleByID(t, samples, "mux_total").Value; got != 9 {
		t.Fatalf("mux_total = %v, want 9", got)
	}

	code, body = get(t, srv, "/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
}

func TestMuxHealthError(t *testing.T) {
	srv := httptest.NewServer(NewMux(ServeConfig{
		Health: func() error { return errors.New("breaker open") },
	}))
	defer srv.Close()
	code, body := get(t, srv, "/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "breaker open") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
}

func TestMuxTraces(t *testing.T) {
	ring := NewTraceRing(8)
	for i := 0; i < 5; i++ {
		ring.Record(Span{Path: "/checkout", Verdict: VerdictAdmit})
	}
	ring.Record(Span{Path: "/checkout", Verdict: "blocklist"})
	srv := httptest.NewServer(NewMux(ServeConfig{Traces: ring}))
	defer srv.Close()

	code, body := get(t, srv, "/debug/traces?n=2")
	if code != http.StatusOK {
		t.Fatalf("/debug/traces status %d", code)
	}
	var out struct {
		Total uint64 `json:"total"`
		Spans []Span `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("traces not JSON: %v\n%s", err, body)
	}
	if out.Total != 6 || len(out.Spans) != 2 {
		t.Fatalf("total %d spans %d, want 6/2", out.Total, len(out.Spans))
	}
	if out.Spans[1].Verdict != "blocklist" {
		t.Fatalf("newest span verdict %q", out.Spans[1].Verdict)
	}
}

func TestMuxTracesDisabled(t *testing.T) {
	srv := httptest.NewServer(NewMux(ServeConfig{}))
	defer srv.Close()
	if code, _ := get(t, srv, "/debug/traces"); code != http.StatusNotFound {
		t.Fatalf("/debug/traces without a ring = %d, want 404", code)
	}
}

func TestMuxPprofIndex(t *testing.T) {
	srv := httptest.NewServer(NewMux(ServeConfig{}))
	defer srv.Close()
	code, body := get(t, srv, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
}
