package detect

import (
	"strconv"
	"sync"
	"testing"
	"time"

	"funabuse/internal/proxy"
	"funabuse/internal/weblog"
)

var st0 = time.Date(2022, time.May, 2, 0, 0, 0, 0, time.UTC)

func streamReq(at time.Time, ip string, fp uint64, cookie string) weblog.Request {
	return weblog.Request{
		Time: at, IP: proxy.IP(ip), Fingerprint: fp, Cookie: cookie,
		Method: "POST", Path: "/booking/hold", Status: 200,
	}
}

func TestStreamMonitorFlagsIPRotation(t *testing.T) {
	m := NewStreamMonitor(StreamConfig{
		RateThreshold: 100,
	})
	// A seat spinner: one fingerprint, no cookie, every request from a
	// fresh residential exit, far too slow to trip the rate threshold.
	var flaggedAt int
	for i := range 30 {
		r := streamReq(st0.Add(time.Duration(i)*10*time.Minute),
			"10.1."+strconv.Itoa(i)+".1", 0xbeef, "")
		if m.Observe(r) && flaggedAt == 0 {
			flaggedAt = i
		}
	}
	key := IdentityKey(streamReq(st0, "x", 0xbeef, ""))
	if !m.Flagged(key) {
		t.Fatal("rotating client never flagged")
	}
	if sig := m.FlaggedSignal(key); sig != SignalDistinctIPs {
		t.Fatalf("flagged by %q, want %q", sig, SignalDistinctIPs)
	}
	if flaggedAt == 0 || flaggedAt > 10 {
		t.Fatalf("flagged at request %d, want within the first ~8 exits", flaggedAt)
	}
	if keys := m.FlaggedKeys(); len(keys) != 1 || keys[0] != key {
		t.Fatalf("flagged keys = %v, want only %s", keys, key)
	}
}

func TestStreamMonitorFlagsHighRate(t *testing.T) {
	m := NewStreamMonitor(StreamConfig{
		RateThreshold: 50,
	})
	// A scraper: one exit, no cookie, hammering.
	for i := range 60 {
		m.Observe(streamReq(st0.Add(time.Duration(i)*time.Second), "198.51.100.9", 0xfeed, ""))
	}
	key := IdentityKey(streamReq(st0, "x", 0xfeed, ""))
	if sig := m.FlaggedSignal(key); sig != SignalRate {
		t.Fatalf("flagged by %q, want %q", sig, SignalRate)
	}
}

func TestStreamMonitorSharedFingerprintStaysQuiet(t *testing.T) {
	// The false-positive trap: a popular browser build gives hundreds of
	// humans the same fingerprint hash, collectively spanning many IPs.
	// Their cookies split the identity keyspace, so nobody is flagged.
	m := NewStreamMonitor(StreamConfig{
		RateThreshold: 100,
	})
	for u := range 200 {
		for i := range 5 {
			r := streamReq(st0.Add(time.Duration(u*5+i)*time.Second),
				"192.0.2."+strconv.Itoa(u%250), 0xcafe, "user-"+strconv.Itoa(u))
			if m.Observe(r) {
				t.Fatalf("human user-%d flagged", u)
			}
		}
	}
	if got := len(m.FlaggedKeys()); got != 0 {
		t.Fatalf("%d identities flagged", got)
	}
}

func TestStreamMonitorJournalSurvivesEngineSweep(t *testing.T) {
	m := NewStreamMonitor(StreamConfig{
		rateWindow:        time.Minute,
		distinctThreshold: 4,
	})
	for i := range 10 {
		m.Observe(streamReq(st0, "10.0."+strconv.Itoa(i)+".1", 0xdead, ""))
	}
	key := IdentityKey(streamReq(st0, "x", 0xdead, ""))
	if !m.Flagged(key) {
		t.Fatal("not flagged before sweep")
	}
	// Hours of unrelated traffic later, the rotating key's engine state has
	// aged out of every shard — the journal must still answer.
	for i := range 20_000 {
		at := st0.Add(3*time.Hour + time.Duration(i)*time.Second)
		m.Observe(streamReq(at, "203.0.113.5", uint64(i%128), "user-x"))
	}
	if !m.Flagged(key) {
		t.Fatal("flag lost after engine sweep")
	}
}

func TestStreamMonitorAlertJournalCapped(t *testing.T) {
	// An attacker rotating identities gets every identity flagged, each
	// exactly once: the flagged set is the monitor's only record.
	m := NewStreamMonitor(StreamConfig{
		RateThreshold: 5,
	})
	const identities = 25
	for id := range identities {
		for i := range 5 {
			m.Observe(streamReq(st0.Add(time.Duration(i)*time.Second),
				"198.51.100.7", uint64(0x1000+id), ""))
		}
	}
	if got := len(m.FlaggedKeys()); got != identities {
		t.Fatalf("%d identities flagged, want %d", got, identities)
	}
	for id := range identities {
		key := IdentityKey(streamReq(st0, "x", uint64(0x1000+id), ""))
		if m.FlaggedSignal(key) != SignalRate {
			t.Fatalf("identity %d flagged by %q, want %q", id, m.FlaggedSignal(key), SignalRate)
		}
	}
}

func TestStreamMonitorJournalSurvivesSweepUnderCap(t *testing.T) {
	// The durable flag is the only one: the unrelated traffic after the
	// sweep flags nobody else.
	m := NewStreamMonitor(StreamConfig{
		rateWindow:        time.Minute,
		distinctThreshold: 4,
	})
	for i := range 10 {
		m.Observe(streamReq(st0, "10.0."+strconv.Itoa(i)+".1", 0xdead, ""))
	}
	key := IdentityKey(streamReq(st0, "x", 0xdead, ""))
	for i := range 20_000 {
		at := st0.Add(3*time.Hour + time.Duration(i)*time.Second)
		m.Observe(streamReq(at, "203.0.113.5", uint64(i%128), "user-x"))
	}
	if !m.Flagged(key) {
		t.Fatal("flag lost after engine sweep")
	}
	if keys := m.FlaggedKeys(); len(keys) != 1 || keys[0] != key {
		t.Fatalf("flagged keys %v, want only the pre-sweep %s", keys, key)
	}
}

func TestStreamMonitorConcurrentObserve(t *testing.T) {
	m := NewStreamMonitor(StreamConfig{
		RateThreshold: 40,
	})
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range 3000 {
				r := streamReq(st0.Add(time.Duration(i)*time.Second),
					"10.9."+strconv.Itoa(i%200)+"."+strconv.Itoa(w),
					uint64(0xf00+w), "")
				m.Observe(r)
			}
		}(w)
	}
	wg.Wait()
	if m.Observed() != 8*3000 {
		t.Fatalf("observed %d", m.Observed())
	}
	// Every worker's identity rotated across 200 exits and exceeded the
	// rate threshold; all eight must be flagged exactly once.
	if got := len(m.FlaggedKeys()); got != 8 {
		t.Fatalf("%d identities flagged, want 8", got)
	}
}

func TestStreamMonitorStatsAndCollector(t *testing.T) {
	m := NewStreamMonitor(StreamConfig{
		RateThreshold: 2,
	})
	// Two identities cross the rate threshold.
	for i := range 3 {
		m.Observe(streamReq(st0.Add(time.Duration(i)*time.Second), "1.1.1.1", 0xa, "c1"))
	}
	for i := range 3 {
		m.Observe(streamReq(st0.Add(time.Duration(i)*time.Second), "2.2.2.2", 0xb, "c2"))
	}

	st := m.Stats()
	if st.Observed != 6 || st.Flagged != 2 {
		t.Fatalf("Stats = %+v", st)
	}
	if st.TrackedKeys != 2 {
		t.Fatalf("TrackedKeys = %d, want 2", st.TrackedKeys)
	}

	byName := map[string]float64{}
	for _, s := range m.Collector().Collect(nil) {
		byName[s.Name] = s.Value
	}
	if byName["stream_flagged_identities"] != 2 ||
		byName["stream_observed_total"] != 6 {
		t.Fatalf("collector samples = %v", byName)
	}
}
