// Package proxy models residential proxy services, the IP-diversity
// substrate behind both attacks in the paper: exits are real-looking
// residential addresses, selectable by country (the Airline D attackers
// matched exit country to the targeted mobile-number country), and rotate
// per request, per session, or reactively after a block.
package proxy

import (
	"fmt"
	"strconv"
	"strings"

	"funabuse/internal/simrand"
)

// IP is a dotted-quad IPv4 address in string form.
type IP string

// RotationPolicy selects when a client moves to a new exit node.
type RotationPolicy int

// Rotation policies.
const (
	// RotatePerRequest draws a fresh exit for every request — maximal
	// diversity, the residential-proxy default ("rotating" plans).
	RotatePerRequest RotationPolicy = iota + 1
	// RotatePerSession keeps one exit per logical session ("sticky" plans).
	RotatePerSession
	// RotateOnBlock keeps the exit until the defender blocks it.
	RotateOnBlock
)

// String names the policy.
func (p RotationPolicy) String() string {
	switch p {
	case RotatePerRequest:
		return "per-request"
	case RotatePerSession:
		return "per-session"
	case RotateOnBlock:
		return "on-block"
	default:
		return fmt.Sprintf("RotationPolicy(%d)", int(p))
	}
}

// poolSpace is how many exits a country's address space holds: the /16
// under its leading octet pair, last octet 1..254.
const poolSpace = 256 * 254

// Pool is a per-country set of residential exit addresses.
//
// Every exit of a pool shares the country's leading octet pair, so an exit
// is stored as its low 16 bits (third octet in the high byte) and the
// dotted-quad string is rendered once, the first time the exit is drawn:
// populations build thousands of exits per market and draw a handful. The
// RNG draw order — two Intn per candidate address, duplicates redrawn — is
// the contract that keeps every Draw byte-identical across representations
// (TestPoolLazyMatchesEager).
type Pool struct {
	country string
	rng     *simrand.RNG
	// prefix is the shared "a.b." leading octet pair.
	prefix string
	exits  []uint16
	// member holds the packed exits, for duplicate checks and Contains.
	member exitSet
	// rendered caches exit i's string form; allocated on the first Draw,
	// "" until exit i is drawn.
	rendered []IP
}

// exitSet is a bitmap over the 16-bit packed exits of one country space.
type exitSet [1 << 16 / 64]uint64

func (s *exitSet) has(e uint16) bool { return s[e>>6]&(1<<(e&63)) != 0 }
func (s *exitSet) add(e uint16)      { s[e>>6] |= 1 << (e & 63) }

// NewPool builds a pool of size exits attributed to the given country code.
// Addresses are synthesized deterministically from the RNG; each country's
// pool lives in a distinct /8-derived space so exits never collide across
// countries. size is clamped to [1, 65024], the addresses that space holds.
func NewPool(r *simrand.RNG, country string, size int) *Pool {
	size = max(1, min(size, poolSpace))
	// Derive a stable leading octet pair from the country code so pools are
	// disjoint between countries.
	lead := 0
	for i := range len(country) {
		lead = lead*31 + int(country[i])
	}
	a := 11 + (lead % 80) // avoid 0/10/127 specials well enough for a simulation
	b := (lead / 80) % 256
	p := &Pool{
		country: country,
		rng:     r,
		prefix:  strconv.Itoa(a) + "." + strconv.Itoa(b) + ".",
		exits:   make([]uint16, 0, size),
	}
	for len(p.exits) < size {
		p.exits = append(p.exits, p.fresh())
	}
	return p
}

// fresh draws addresses until one is not in the pool, marks it a member and
// returns it.
func (p *Pool) fresh() uint16 {
	for {
		c := p.rng.Intn(256)
		d := 1 + p.rng.Intn(254)
		e := uint16(c<<8 | d)
		if !p.member.has(e) {
			p.member.add(e)
			return e
		}
	}
}

// Country returns the pool's country code.
func (p *Pool) Country() string { return p.country }

// Size returns the number of exits.
func (p *Pool) Size() int { return len(p.exits) }

// Contains reports whether ip belongs to this pool.
func (p *Pool) Contains(ip IP) bool {
	rest, ok := strings.CutPrefix(string(ip), p.prefix)
	if !ok {
		return false
	}
	c, rest, ok := cutOctet(rest)
	if !ok || rest == "" || rest[0] != '.' {
		return false
	}
	d, rest, ok := cutOctet(rest[1:])
	if !ok || rest != "" {
		return false
	}
	return p.member.has(uint16(c<<8 | d))
}

// cutOctet parses a leading canonical decimal octet (no sign, no leading
// zero, at most 255) off s.
func cutOctet(s string) (v int, rest string, ok bool) {
	i := 0
	for i < len(s) && i < 3 && s[i] >= '0' && s[i] <= '9' {
		v = v*10 + int(s[i]-'0')
		i++
	}
	if i == 0 || v > 255 || (i > 1 && s[0] == '0') {
		return 0, s, false
	}
	return v, s[i:], true
}

// Draw returns a uniformly random exit.
func (p *Pool) Draw() IP {
	return p.exit(p.rng.Intn(len(p.exits)))
}

// exit returns exit i in string form, rendering it on first use.
func (p *Pool) exit(i int) IP {
	if p.rendered == nil {
		p.rendered = make([]IP, len(p.exits))
	}
	if p.rendered[i] == "" {
		e := p.exits[i]
		var scratch [24]byte
		buf := append(scratch[:0], p.prefix...)
		buf = strconv.AppendUint(buf, uint64(e>>8), 10)
		buf = append(buf, '.')
		buf = strconv.AppendUint(buf, uint64(e&0xff), 10)
		p.rendered[i] = IP(buf)
	}
	return p.rendered[i]
}

// Service is a residential proxy provider with per-country pools and a
// per-request price. Pricing is what makes honeypot/economic mitigations
// bite: every wasted request still costs the attacker proxy bandwidth.
type Service struct {
	rng      *simrand.RNG
	pools    map[string]*Pool
	poolSize int
	requests int
}

// ServiceOption configures a Service.
type ServiceOption func(*Service)

// WithPoolSize sets how many exits each country pool holds. NewPool clamps
// it to the 65,024 addresses of a country's space.
func WithPoolSize(n int) ServiceOption {
	return func(s *Service) { s.poolSize = n }
}

// DefaultCostPerRequestUSD is the price the attacker pays per proxied
// request. Residential bandwidth retails around $3-8/GB; at a few KB per
// API call the effective per-request price is a fraction of a tenth of a
// cent.
const DefaultCostPerRequestUSD = 0.0004

// NewService returns a Service drawing from r.
func NewService(r *simrand.RNG, opts ...ServiceOption) *Service {
	s := &Service{
		rng:      r,
		pools:    make(map[string]*Pool),
		poolSize: 512,
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Exit returns an exit IP in the requested country, creating the country
// pool on first use. Each call is counted (and billed) as one proxied
// request.
func (s *Service) Exit(country string) IP {
	p, ok := s.pools[country]
	if !ok {
		p = NewPool(s.rng.Derive("pool-"+country), country, s.poolSize)
		s.pools[country] = p
	}
	s.requests++
	return p.Draw()
}

// Requests returns how many proxied requests the service has served.
func (s *Service) Requests() int { return s.requests }

// SpendUSD returns the attacker's cumulative proxy spend.
func (s *Service) SpendUSD() float64 {
	return float64(s.requests) * DefaultCostPerRequestUSD
}

// Session is a client-side handle applying a rotation policy over the
// service.
type Session struct {
	svc     *Service
	country string
	policy  RotationPolicy
	current IP
	has     bool
}

// NewSession opens a rotation session pinned to a country.
func (s *Service) NewSession(country string, policy RotationPolicy) *Session {
	return &Session{svc: s, country: country, policy: policy}
}

// Addr returns the exit to use for the next request under the session's
// policy.
func (ps *Session) Addr() IP {
	switch ps.policy {
	case RotatePerRequest:
		ps.current = ps.svc.Exit(ps.country)
		ps.has = true
	default:
		if !ps.has {
			ps.current = ps.svc.Exit(ps.country)
			ps.has = true
		}
	}
	return ps.current
}

// Blocked informs the session its current exit was blocked; under
// RotateOnBlock (and the sticky policy) the next Addr draws a fresh exit.
func (ps *Session) Blocked() {
	ps.has = false
}

// Policy returns the session's rotation policy.
func (ps *Session) Policy() RotationPolicy { return ps.policy }
