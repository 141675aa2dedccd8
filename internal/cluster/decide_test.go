package cluster

import (
	"fmt"
	"testing"
	"time"

	"funabuse/internal/httpgate"
	"funabuse/internal/simclock"
)

// decideStream derives the i-th request of a deterministic mixed stream:
// rotating fingerprints, IPs, paths and sessions, spread across the
// fleet by the hash router; every seventh request lacks the collector
// header, which the fleet's gates deny.
func decideStream(i int) httpgate.Request {
	fp := uint64(0xbead + i%23)
	ip := fmt.Sprintf("198.51.0.%d", i%17)
	r := fleetRequest(fmt.Sprintf("/p/%d?pnr=PNR%d", i%4, i%6), fp, ip)
	return httpgate.Request{R: r, Info: httpgate.ClientInfo{
		IP: ip, Fingerprint: fp, HasFingerprint: i%7 != 3,
		ClientKey: fmt.Sprintf("sess-%d", i%19),
	}}
}

// TestClusterDecideBatchMatchesSequential drives the same stream through
// per-request Cluster.Decide on one fleet and Cluster.DecideBatch on a
// twin, and requires identical verdicts per request plus identical
// per-node admitted/denied distribution — proving the batch scatter
// routes each request to the same node and gathers its verdict back to
// the right index. Without a rule threshold no decision hook deploys
// anything mid-batch (the documented in-batch divergence), so outcomes
// are exact.
func TestClusterDecideBatchMatchesSequential(t *testing.T) {
	build := func() *Cluster {
		return New(Config{Nodes: 4, Clock: simclock.NewManual(epoch)})
	}
	seq, bat := build(), build()
	const total, batch = 300, 32
	out := make([]httpgate.Decision, 0, batch)
	denied := 0
	for lo := 0; lo < total; lo += batch {
		hi := min(lo+batch, total)
		reqs := make([]httpgate.Request, 0, batch)
		for i := lo; i < hi; i++ {
			reqs = append(reqs, decideStream(i))
		}
		want := make([]httpgate.Decision, len(reqs))
		for j, rq := range reqs {
			want[j] = seq.Decide(rq.R, rq.Info)
		}
		out = bat.DecideBatch(reqs, out)
		for j := range reqs {
			if out[j] != want[j] {
				t.Fatalf("request %d: batch %+v, sequential %+v", lo+j, out[j], want[j])
			}
			if out[j].Denied() {
				denied++
			}
		}
	}
	if denied == 0 || denied == total {
		t.Fatalf("stream produced %d denials of %d; the comparison is vacuous", denied, total)
	}
	for i := range 4 {
		sg, bg := seq.NodeGate(i), bat.NodeGate(i)
		sa, _, _ := gateCounts(t, sg)
		ba, _, _ := gateCounts(t, bg)
		if sa != ba {
			t.Fatalf("node %d admitted diverge: sequential %v, batch %v", i, sa, ba)
		}
	}
}

// gateCounts reads a gate's admitted/denied/degraded totals off its
// collector.
func gateCounts(t *testing.T, g *httpgate.Gate) (admitted, deniedN, degraded float64) {
	t.Helper()
	for _, s := range g.Collector().Collect(nil) {
		switch s.Name {
		case httpgate.MetricAdmitted:
			admitted = s.Value
		case httpgate.MetricDenied:
			deniedN = s.Value
		case httpgate.MetricDegraded:
			degraded = s.Value
		}
	}
	return admitted, deniedN, degraded
}

// TestClusterDecideBatchOriginatesRules proves the in-process batch front
// still drives the detection loop: enough single-fingerprint volume
// through DecideBatch originates a block rule, and subsequent batches
// see the blocklist denial.
func TestClusterDecideBatchOriginatesRules(t *testing.T) {
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
	var out []httpgate.Decision
	blocked := false
	for round := 0; round < 8 && !blocked; round++ {
		manual.Advance(time.Second)
		out = c.DecideBatch(reqs, out)
		for _, d := range out {
			if d.Reason == httpgate.ReasonBlocklist {
				blocked = true
				break
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
