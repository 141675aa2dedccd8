package obs_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"funabuse/internal/cluster"
	"funabuse/internal/httpgate"
	"funabuse/internal/obs"
	"funabuse/internal/simclock"
)

var confT0 = time.Date(2022, time.December, 1, 0, 0, 0, 0, time.UTC)

// TestCollectorConformance is the table-driven contract test for the
// obs.Collector adapters a binary registers: the gate's and the fleet's
// (the application's is scraped by TestObsSmoke in cmd/fraudsim). Every
// collector must:
//
//  1. emit at least one sample;
//  2. use valid Prometheus metric and label names;
//  3. emit no duplicate series (name+labels);
//  4. emit only finite values;
//  5. be deterministic: two collects of a quiesced source are identical;
//  6. append to dst without touching existing elements.
func TestCollectorConformance(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T) obs.Collector
	}{
		{
			name: "httpgate.Gate",
			build: func(t *testing.T) obs.Collector {
				g := httpgate.New(httpgate.Config{
					Clock:      simclock.NewManual(confT0),
					PathLimit:  10,
					PathWindow: time.Hour,
				}, httpgate.WithResilience(httpgate.ResilienceConfig{}))
				h := g.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
				r := httptest.NewRequest(http.MethodGet, "/checkout", nil)
				r.RemoteAddr = "203.0.113.1:999"
				h.ServeHTTP(httptest.NewRecorder(), r)
				return g.Collector()
			},
		},
		{
			name: "cluster.Cluster",
			build: func(t *testing.T) obs.Collector {
				manual := simclock.NewManual(confT0)
				c := cluster.New(cluster.Config{
					Nodes:          2,
					Clock:          manual,
					Gossip:         time.Second,
					ReplicateRules: true,
					ReplicateState: true,
					RuleThreshold:  2,
					RuleWindow:     time.Minute,
				})
				h := c.Handler()
				for range 3 {
					manual.Advance(200 * time.Millisecond)
					r := httptest.NewRequest(http.MethodGet, "/booking/hold", nil)
					r.Header.Set(httpgate.FingerprintHeader, "beef")
					r.RemoteAddr = "203.0.113.9:999"
					h.ServeHTTP(httptest.NewRecorder(), r)
				}
				return c.Collector()
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.build(t)

			sentinel := obs.Sample{Name: "sentinel_total", Value: 42}
			first := c.Collect([]obs.Sample{sentinel})
			if len(first) < 2 {
				t.Fatal("collector emitted no samples")
			}
			if !reflect.DeepEqual(first[0], sentinel) {
				t.Fatalf("collector disturbed dst[0]: %+v", first[0])
			}
			first = first[1:]

			seen := make(map[string]bool, len(first))
			for _, s := range first {
				if !obs.ValidName(s.Name) {
					t.Errorf("invalid metric name %q", s.Name)
				}
				for _, l := range s.Labels {
					if !obs.ValidLabelName(l.Name) {
						t.Errorf("invalid label name %q on %s", l.Name, s.Name)
					}
				}
				id := sampleID(s)
				if seen[id] {
					t.Errorf("duplicate series %s", id)
				}
				seen[id] = true
				if s.Value != s.Value || s.Value > 1e18 || s.Value < -1e18 {
					t.Errorf("non-finite or absurd value %v for %s", s.Value, s.Name)
				}
			}

			second := c.Collect(nil)
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("quiesced collector not deterministic:\nfirst  %+v\nsecond %+v", first, second)
			}
		})
	}
}

func sampleID(s obs.Sample) string {
	id := s.Name
	for _, l := range s.Labels {
		id += "|" + l.Name + "=" + l.Value
	}
	return id
}

// TestFleetGatesShareOneRegistry drives N node-labelled gates on one
// registry while scraping it concurrently — the cluster telemetry shape.
// The race detector polices the concurrent phase; afterwards the quiesced
// registry must hold no duplicate series and scrape deterministically.
func TestFleetGatesShareOneRegistry(t *testing.T) {
	const nodes = 4
	reg := obs.NewRegistry()
	gates := make([]*httpgate.Gate, nodes)
	for i := range gates {
		gates[i] = httpgate.New(httpgate.Config{
			Clock:      simclock.NewManual(confT0),
			PathLimit:  3,
			PathWindow: time.Hour,
		}, httpgate.WithTelemetry(reg),
			httpgate.WithTelemetryLabels(obs.Label{Name: "node", Value: strconv.Itoa(i)}))
	}

	var wg sync.WaitGroup
	for i, g := range gates {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := g.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
			for j := range 8 {
				r := httptest.NewRequest(http.MethodGet, "/checkout", nil)
				r.RemoteAddr = fmt.Sprintf("203.0.113.%d:%d", i+1, 1000+j)
				h.ServeHTTP(httptest.NewRecorder(), r)
			}
		}()
	}
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		for range 10 {
			reg.Gather()
		}
	}()
	wg.Wait()
	<-scrapeDone

	first := reg.Gather()
	seen := make(map[string]bool, len(first))
	perNode := make(map[string]float64, nodes)
	for _, s := range first {
		id := sampleID(s)
		if seen[id] {
			t.Fatalf("duplicate series %s", id)
		}
		seen[id] = true
		if s.Name == httpgate.MetricAdmitted {
			for _, l := range s.Labels {
				if l.Name == "node" {
					perNode[l.Value] = s.Value
				}
			}
		}
	}
	if len(perNode) != nodes {
		t.Fatalf("admitted series for %d nodes, want %d: %v", len(perNode), nodes, perNode)
	}
	for n, v := range perNode {
		if v != 3 {
			t.Fatalf("node %s admitted %v, want 3 (path limit)", n, v)
		}
	}
	if second := reg.Gather(); !reflect.DeepEqual(first, second) {
		t.Fatal("quiesced registry scrape not deterministic")
	}
}

// TestCollectorsComposeOnOneRegistry scrapes a gate registered through
// WithTelemetry and a fleet's collector through one registry, and
// requires the whole exposition to parse.
func TestCollectorsComposeOnOneRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Register(cluster.New(cluster.Config{Nodes: 2, Clock: simclock.NewManual(confT0), Gossip: time.Second}).Collector())

	g := httpgate.New(httpgate.Config{Clock: simclock.NewManual(confT0), PathLimit: 5, PathWindow: time.Hour},
		httpgate.WithTelemetry(reg))

	h := g.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	r := httptest.NewRequest(http.MethodGet, "/checkout", nil)
	r.RemoteAddr = "203.0.113.1:999"
	h.ServeHTTP(httptest.NewRecorder(), r)

	srv := httptest.NewServer(obs.NewMux(obs.ServeConfig{Registry: reg}))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	samples, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("combined exposition unparseable: %v", err)
	}
	want := map[string]bool{
		cluster.MetricNodes:           false,
		cluster.MetricFleetAdmitted:   false,
		"gate_admitted_total":         false,
		"gate_decision_seconds_count": false,
	}
	for _, s := range samples {
		if _, ok := want[s.Name]; ok {
			want[s.Name] = true
		}
	}
	for name, found := range want {
		if !found {
			t.Errorf("metric %s missing from combined scrape", name)
		}
	}
}
