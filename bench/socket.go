package main

import (
	"fmt"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"funabuse/internal/httpgate"
	"funabuse/internal/loadgen"
	"funabuse/internal/simclock"
)

const (
	loadConns = 2
	// socketPlanDur fixes the socket round: about 4 000 requests of the
	// gate_direct traffic mix, 60 to 90 ms of work (see best for why rounds
	// are short).
	socketPlanDur = 3 * time.Second
)

// wireRequest is one pre-serialised request with the answer its identity
// must get.
type wireRequest struct {
	bytes  []byte
	status int
	reason string
}

// socketInputs is the compiled socket workload: each connection's requests
// in send order.
type socketInputs struct {
	plan  *loadgen.Plan
	conns [loadConns][]wireRequest
	total int
}

// expectSocket is the verdict an arrival must get on the socket workload, a
// pure function of who sends it and where: every bot's fingerprint is
// pre-blocked, guests are refused the tier-gated path, everyone else is
// served. The rate layers run with limits the load never reaches.
func expectSocket(a loadgen.Arrival) (status int, reason string) {
	switch a.Class {
	case classSpin, classPump:
		return http.StatusForbidden, httpgate.ReasonBlocklist
	case classGuest:
		return http.StatusForbidden, httpgate.ReasonAccountTier
	}
	return http.StatusOK, ""
}

func buildSocketInputs(seed uint64, traced bool) (*socketInputs, error) {
	plan, err := loadgen.BuildPlan(gateScenario(seed, socketPlanDur))
	if err != nil {
		return nil, err
	}
	in := &socketInputs{plan: plan, total: len(plan.Arrivals)}
	for i, a := range plan.Arrivals {
		c := i % loadConns
		reqID := uint64(c)<<32 | uint64(len(in.conns[c]))
		status, reason := expectSocket(a)
		in.conns[c] = append(in.conns[c], wireRequest{
			bytes:  rawRequest(arrivalTarget(a), arrivalIdentity(seed, i, a, false), reqID, traced),
			status: status, reason: reason,
		})
	}
	return in, nil
}

// gateServer is the defended server of the socket workload.
type gateServer struct {
	st    *gateStack
	addr  string
	close func()
}

// okBackend is the handler behind the gate, the same one loadgen.StartTarget
// serves.
var okBackend = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n")) // a failed write surfaces as the client's transport error
})

// traceHandler records one span per request around next, tagged with the
// request id the load generator sent.
func traceHandler(rec *recorder, name uint8, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// A request without the header (nothing the harness sends) joins id 0.
		req, _ := strconv.ParseUint(r.Header.Get(benchReqHeader), 10, 64)
		t0 := time.Now()
		next.ServeHTTP(w, r)
		rec.add(name, 0, req, t0, time.Now())
	})
}

// serveOn serves h on an ephemeral loopback port.
func serveOn(h http.Handler) (addr string, closeFn func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed on Close
	}()
	return ln.Addr().String(), func() {
		_ = srv.Close()
		<-done
	}, nil
}

// startGateServer boots the full stack on a loopback listener with every
// abusive fingerprint pre-blocked. Untraced it is loadgen.StartTarget;
// traced, the benchmark assembles the same server itself so that it can put
// its span wrappers around gate.Wrap(next) and around next.
func startGateServer(seed uint64, rec *recorder) (*gateServer, error) {
	cfg, st := newGateConfig(simclock.Real{}, false, limitsIdle)
	gs := &gateServer{st: st}
	if rec == nil {
		t, err := loadgen.StartTarget(cfg)
		if err != nil {
			return nil, err
		}
		st.gate, st.blocks = t.Gate, t.Blocks
		gs.addr = strings.TrimPrefix(t.URL, "http://")
		gs.close = func() { _ = t.Close() }
	} else {
		st.gate, st.blocks, _ = loadgen.NewTargetGate(cfg)
		h := traceHandler(rec, spanHandle, st.gate.Wrap(traceHandler(rec, spanBackend, okBackend)))
		addr, closeFn, err := serveOn(h)
		if err != nil {
			return nil, err
		}
		gs.addr, gs.close = addr, closeFn
	}
	st.seedDefender(seed, time.Now(), true)
	return gs, nil
}

// socketRun is one set-up closed-loop workload.
type socketRun struct {
	in    *socketInputs
	srv   *gateServer
	conns [loadConns]*loadConn
	lat   [loadConns][]float64 // microseconds, per connection, per request
}

func setupSocket(seed uint64, rec *recorder) (*socketRun, error) {
	in, err := buildSocketInputs(seed, rec != nil)
	if err != nil {
		return nil, err
	}
	srv, err := startGateServer(seed, rec)
	if err != nil {
		return nil, err
	}
	s := &socketRun{in: in, srv: srv}
	for c := range s.conns {
		if s.conns[c], err = dialLoad(srv.addr); err != nil {
			s.close()
			return nil, err
		}
		s.lat[c] = make([]float64, len(in.conns[c]))
	}
	// One untimed round fills connection buffers, pools, the limiter maps,
	// the entity graph and the account store.
	if _, failed, v := s.round(nil); failed > 0 {
		s.close()
		return nil, fmt.Errorf("warm-up round: %d of %d answers wrong (%s)", failed, in.total, v)
	}
	return s, nil
}

func (s *socketRun) close() {
	for _, c := range s.conns {
		if c != nil {
			c.close()
		}
	}
	s.srv.close()
}

// round sends every connection's sequence once, each connection a closed
// loop of its own, and returns the wall time, how many answers were wrong
// (transport errors included) and the histogram of what came back.
func (s *socketRun) round(rec *recorder) (time.Duration, int, *verdicts) {
	var wg sync.WaitGroup
	var failed [loadConns]int
	var tallies [loadConns]*verdicts
	start := time.Now()
	for c := range s.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := newVerdicts()
			tallies[c] = v
			for i := range s.in.conns[c] {
				rq := &s.in.conns[c][i]
				t0 := time.Now()
				resp, err := s.conns[c].roundTrip(rq.bytes)
				t1 := time.Now()
				if err != nil {
					// The connection is gone: everything still due on it fails.
					failed[c] += len(s.in.conns[c]) - i
					return
				}
				s.lat[c][i] = float64(t1.Sub(t0)) / 1e3
				rec.add(spanRequest, 0, uint64(c)<<32|uint64(i), t0, t1)
				if resp.Status != rq.status || resp.DeniedBy != rq.reason {
					failed[c]++
				}
				v.tally(0, httpgate.Decision{Reason: resp.DeniedBy, Status: resp.Status})
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	total := newVerdicts()
	nFailed := 0
	for c := range tallies {
		nFailed += failed[c]
		total.Admitted += tallies[c].Admitted
		for reason, n := range tallies[c].Denied {
			total.Denied[reason] += n
		}
	}
	return wall, nFailed, total
}

// latencies returns the last round's latencies of all connections, sorted.
func (s *socketRun) latencies() []float64 {
	var all []float64
	for c := range s.lat {
		all = append(all, s.lat[c]...)
	}
	slices.Sort(all)
	return all
}

// measureSocket is the untraced pass of gate_socket.
func measureSocket(seed uint64, seconds float64, gold *golden) (*report, error) {
	rep := newReport("gate_socket", seed, false)
	var s *socketRun
	setups, err := repeatSetup(func() (err error) {
		s, err = setupSocket(seed, nil)
		return err
	}, func() { s.close() })
	if err != nil {
		return nil, err
	}
	defer s.close()
	rep.setBestOf("setup_s", setups)

	var samples roundSamples
	var ref *verdicts
	start := time.Now()
	for round := 0; round < minRounds || time.Since(start).Seconds() < seconds; round++ {
		var reg region
		reg.begin()
		_, failed, v := s.round(nil)
		reg.end()
		rep.Attempted += s.in.total
		rep.Failed += failed
		if failed > 0 {
			rep.failf("round %d: %d of %d answers differ from the identity's expected verdict (%s)", round, failed, s.in.total, v)
		}
		if ref == nil {
			ref = v
		}
		samples.addPass(s.in.total, reg)
		samples.addLatency(reg.wall, s.latencies())
	}
	samples.report(rep)
	rep.set("live_heap_mb", liveHeapMiB())
	gold.checkGate(rep, "gate_socket", s.in.plan.Hash(), ref)
	runtime.KeepAlive(s)
	rep.finish()
	return rep, nil
}
