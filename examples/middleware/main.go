// Middleware example: the fraud-prevention pipeline guarding a real
// net/http service. A toy boarding-pass endpoint is wrapped with the
// httpgate middleware — blocklists, a challenge hook, and the per-resource
// rate limit whose absence enabled the Airline D incident — and the
// example fires a miniature pumping run against the live server to show
// each layer deny in turn.
package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"time"

	"funabuse/internal/httpgate"
	"funabuse/internal/mitigate"
	"funabuse/internal/obs"
	"funabuse/internal/simclock"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	blocks := mitigate.NewBlockList(24 * time.Hour)
	now := time.Now()

	gate := httpgate.New(httpgate.Config{
		Blocks: blocks,
		// Per-booking-reference limit: 3 boarding-pass sends per day —
		// the control the paper's case study C shows was missing.
		ResourceKey: func(r *http.Request) string {
			return httpgate.QueryValue(r, "pnr")
		},
		ResourceLimit:  3,
		ResourceWindow: 24 * time.Hour,
		// A simple challenge: require the fingerprint collector to have
		// run (trivial scripts skip it).
		RequireFingerprint: true,
		Clock:              simclock.Real{},
	})

	mux := http.NewServeMux()
	mux.HandleFunc("/checkin/boardingpass/sms", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "boarding pass for %s sent\n", r.URL.Query().Get("pnr"))
	})

	srv := httptest.NewServer(gate.Wrap(mux))
	defer srv.Close()
	fmt.Println("server up at", srv.URL)
	fmt.Println()

	client := srv.Client()
	show := func(label, url string, decorate func(*http.Request)) error {
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		if decorate != nil {
			decorate(req)
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		deniedBy := resp.Header.Get(httpgate.ReasonHeader)
		if deniedBy == "" {
			deniedBy = "-"
		}
		fmt.Printf("%-38s -> %d  denied-by=%-20s %s", label, resp.StatusCode, deniedBy,
			string(body))
		return nil
	}
	withCollector := func(r *http.Request) {
		r.Header.Set(httpgate.FingerprintHeader, "deadbeef")
	}

	// 1. A script without the collector header: challenged away.
	if err := show("bot without collector", srv.URL+"/checkin/boardingpass/sms?pnr=ABC123", nil); err != nil {
		return err
	}

	// 2. A browser (collector ran): three sends per booking reference pass…
	for i := 1; i <= 3; i++ {
		if err := show(fmt.Sprintf("send %d for PNR ABC123", i),
			srv.URL+"/checkin/boardingpass/sms?pnr=ABC123", withCollector); err != nil {
			return err
		}
	}
	// …and the fourth trips the per-locator limit.
	if err := show("send 4 for PNR ABC123 (pump attempt)",
		srv.URL+"/checkin/boardingpass/sms?pnr=ABC123", withCollector); err != nil {
		return err
	}
	// A different booking is unaffected.
	if err := show("send 1 for PNR XYZ789",
		srv.URL+"/checkin/boardingpass/sms?pnr=XYZ789", withCollector); err != nil {
		return err
	}

	// 3. The defender pushes a fingerprint block rule; the device is out.
	blocks.Block("fp:deadbeef", now)
	if err := show("blocked device fingerprint",
		srv.URL+"/checkin/boardingpass/sms?pnr=XYZ789", withCollector); err != nil {
		return err
	}

	admitted, _ := obs.Value(gate.Collector(), httpgate.MetricAdmitted)
	denied, _ := obs.Value(gate.Collector(), httpgate.MetricDenied)
	fmt.Printf("\ngate totals: admitted=%.0f denied=%.0f\n", admitted, denied)
	return nil
}
