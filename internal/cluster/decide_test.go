package cluster

import (
	"fmt"
	"testing"
	"time"

	"funabuse/internal/httpgate"
	"funabuse/internal/simclock"
)

// TestClusterDecideOriginatesRules proves the in-process front still
// drives the detection loop: enough single-fingerprint volume through
// Decide originates a block rule, and later rounds see the blocklist
// denial.
func TestClusterDecideOriginatesRules(t *testing.T) {
	manual := simclock.NewManual(epoch)
	c := New(Config{
		Nodes:         3,
		Clock:         manual,
		RuleThreshold: 25,
		RuleWindow:    time.Hour,
	})
	const fp = 0xabba
	reqs := make([]httpgate.Request, 16)
	for i := range reqs {
		ip := fmt.Sprintf("203.0.113.%d", i%5)
		reqs[i] = httpgate.Request{
			R:    fleetRequest("/booking/hold", fp, ip),
			Info: httpgate.ClientInfo{IP: ip, Fingerprint: fp, HasFingerprint: true},
		}
	}
	blocked := false
	for round := 0; round < 8 && !blocked; round++ {
		manual.Advance(time.Second)
		for _, rq := range reqs {
			if c.Decide(rq.R, rq.Info).Reason == httpgate.ReasonBlocklist {
				blocked = true
			}
		}
	}
	if !blocked {
		t.Fatal("no blocklist denial after 128 single-fingerprint requests, threshold 25")
	}
	if st := c.Stats(); st.RulesOriginated == 0 {
		t.Fatalf("stats report no originated rules: %+v", st)
	}
}
