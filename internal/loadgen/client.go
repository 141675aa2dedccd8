package loadgen

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"funabuse/internal/fingerprint"
	"funabuse/internal/simrand"
)

// Rotation is one identity change by an adaptive attacker client.
type Rotation struct {
	// FromFP is the fingerprint hash before the change.
	FromFP uint64
	// NoticedAt is when the client first saw a blocklist denial against
	// FromFP — the moment it learned a rule names it.
	NoticedAt time.Time
	// At is when the rotated identity was first presented.
	At time.Time
}

// client is one simulated sender: an honest browser with a stable
// identity, or an attacker bot that rotates fingerprints in reaction to
// blocking rules. Clients are owned by the Runner and may be driven by
// any worker, so their mutable identity state is mutex-guarded.
type client struct {
	kind ClassKind
	id   string

	mu sync.Mutex
	// Presented identity. Honest clients fix all three for the run;
	// attacker bots rotate fp+sid reactively and draw a fresh proxy
	// address per request.
	fp  uint64
	sid string
	ip  string

	// Attacker state.
	rng          *simrand.RNG
	rot          *fingerprint.Rotator
	pool         *identityPool
	reactionMean time.Duration
	// noticedAt is the first blocklist denial against the current
	// fingerprint; pendingAt is the scheduled instant the rotated
	// identity takes over. Both zero while unblocked.
	noticedAt time.Time
	pendingAt time.Time
	rotations []Rotation

	// Economics state, nil/zero unless the class carries an EconModel.
	// spentUSD accrues registrations, per-request costs and burned-account
	// write-offs; once it reaches the budget the client stops issuing.
	econ          *EconModel
	spentUSD      float64
	registrations int
	burned        int
}

// Syndicate identity-pool sizes: small enough that the ring's resources
// visibly overlap, large enough that each member's per-fingerprint rate
// stays a fraction of the class total.
const (
	syndicatePoolFPs = 6
	syndicatePoolIPs = 8
)

// identityPool is the shared resource set of a Syndicate class: every
// client in the fleet draws each request's fingerprint and exit address
// from the same pool, so no identity concentrates volume while all of
// them co-occur. The pool is immutable after construction.
type identityPool struct {
	fps []uint64
	ips []string
}

// newIdentityPool draws the class's shared spoofed fingerprints and proxy
// exits from one class-level stream, so the pool is identical no matter
// how the fleet is sized or scheduled.
func newIdentityPool(rng *simrand.RNG) *identityPool {
	p := &identityPool{}
	rot := fingerprint.NewRotator(rng.Derive("rot"),
		fingerprint.NewGenerator(rng.Derive("gen")),
		fingerprint.WithSpoofing())
	for range syndicatePoolFPs {
		p.fps = append(p.fps, rot.Rotate().Hash())
	}
	for range syndicatePoolIPs {
		p.ips = append(p.ips, fmt.Sprintf("203.0.%d.%d", rng.Intn(114), 1+rng.Intn(250)))
	}
	return p
}

// newFleet builds the class's clients, each with its own derived stream
// so fleets are independent of draw order elsewhere.
func newFleet(root *simrand.RNG, ci int, c Class) []*client {
	var pool *identityPool
	if c.Kind == Syndicate {
		pool = newIdentityPool(root.Derive("loadgen:pool:" + c.Name))
	}
	fleet := make([]*client, c.Clients)
	for i := range fleet {
		id := fmt.Sprintf("%s-%d", c.Name, i)
		rng := root.Derive("loadgen:client:" + id)
		cl := &client{kind: c.Kind, id: id, rng: rng}
		if c.Kind == Syndicate {
			// Ring member: a stable session but a pooled fingerprint and
			// exit, redrawn per request by identity().
			cl.pool = pool
			cl.fp = pool.fps[i%len(pool.fps)]
			cl.ip = pool.ips[i%len(pool.ips)]
			cl.sid = id
		} else if c.Kind.Abusive() {
			// Spoof-mode rotation: each new identity is a fresh draw from
			// the organic population with automation artifacts stripped,
			// the evasion FP-Inconsistent documents.
			cl.rot = fingerprint.NewRotator(rng.Derive("rot"),
				fingerprint.NewGenerator(rng.Derive("gen")),
				fingerprint.WithSpoofing())
			cl.reactionMean = c.ReactionMean
			cl.fp = cl.rot.Current().Hash()
			cl.sid = cl.id + "-r0"
			cl.ip = cl.drawProxyIP()
			if c.Econ != nil {
				// Opening the account is the first line of the ledger.
				cl.econ = c.Econ
				cl.spentUSD = c.Econ.RegistrationUSD
				cl.registrations = 1
			}
		} else {
			gen := fingerprint.NewGenerator(rng.Derive("gen"))
			cl.fp = gen.Organic().Hash()
			cl.sid = cl.id
			// Honest addresses spread across a documentation /16.
			cl.ip = fmt.Sprintf("198.51.%d.%d", (ci*16+i/250)%240, 1+i%250)
		}
		fleet[i] = cl
	}
	return fleet
}

// drawProxyIP draws the bot's next exit address from a residential-proxy
// style pool. Must be called with the mutex held (or during construction).
func (c *client) drawProxyIP() string {
	return fmt.Sprintf("203.0.%d.%d", c.rng.Intn(114), 1+c.rng.Intn(250))
}

// identity resolves what the client presents for a request intended at
// now: a scheduled rotation whose time has come takes effect first, so
// the rotated fingerprint's first use is timestamped by the schedule, not
// by socket jitter. It returns the fingerprint hash (hex), session id and
// source address to send, and whether a rotation took effect on this
// request.
func (c *client) identity(now time.Time) (fpHex, sid, ip string, rotated bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pool != nil {
		// Syndicate draw: a fresh pooled fingerprint/exit combination per
		// request. No rotation machinery — dilution is the whole evasion.
		c.fp = c.pool.fps[c.rng.Intn(len(c.pool.fps))]
		c.ip = c.pool.ips[c.rng.Intn(len(c.pool.ips))]
	} else if c.kind.Abusive() {
		if !c.pendingAt.IsZero() && !now.Before(c.pendingAt) {
			old := c.fp
			f := c.rot.Rotate()
			c.fp = f.Hash()
			c.sid = fmt.Sprintf("%s-r%d", c.id, c.rot.Rotations())
			c.rotations = append(c.rotations, Rotation{
				FromFP: old, NoticedAt: c.noticedAt, At: now,
			})
			c.noticedAt = time.Time{}
			c.pendingAt = time.Time{}
			rotated = true
			if c.econ != nil {
				// The blocked account is written off and a fresh one
				// registered — the per-rotation price of evasion.
				c.burned++
				c.registrations++
				c.spentUSD += c.econ.BurnUSD + c.econ.RegistrationUSD
			}
		}
		c.ip = c.drawProxyIP()
	}
	return strconv.FormatUint(c.fp, 16), c.sid, c.ip, rotated
}

// observe is the adaptive feedback edge: the client reads the gate's
// response. A blocklist denial that was not made in degraded-blocklist
// mode is hard evidence a rule names the current fingerprint; the bot
// schedules a rotation after its reaction delay. Rate-limit and challenge
// denials do not trigger rotation — the paper's attackers rotated in
// response to blocking rules, not to backpressure.
func (c *client) observe(now time.Time, deniedBy string, blocklistDegraded bool) {
	if !c.kind.Abusive() || c.reactionMean <= 0 {
		return
	}
	if deniedBy != "blocklist" || blocklistDegraded {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.pendingAt.IsZero() {
		return
	}
	c.noticedAt = now
	c.pendingAt = now.Add(c.reactionDelay())
}

// reactionDelay draws the notice-to-rotation delay: exponential around
// the class's mean, floored at a tenth of it — even a fully automated
// operation needs time to redeploy. (fingerprint.Rotator's own draw
// floors at 15 minutes, which would pin compressed second-scale runs.)
func (c *client) reactionDelay() time.Duration {
	d := time.Duration(c.rng.Exp(float64(c.reactionMean)))
	if floor := c.reactionMean / 10; d < floor {
		d = floor
	}
	return d
}

// charge pays the marginal cost of one request, reporting false when the
// client's budget is already spent — an exhausted client stops issuing
// (and, because the check precedes identity resolution, stops rotating:
// there is no budget left to re-register with).
func (c *client) charge() bool {
	if c.econ == nil {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.econ.BudgetUSD > 0 && c.spentUSD >= c.econ.BudgetUSD {
		return false
	}
	c.spentUSD += c.econ.RequestUSD
	return true
}

// econSnapshot reads the client's ledger lines.
func (c *client) econSnapshot() (registrations, burned int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.registrations, c.burned
}

// takeRotations snapshots the client's rotation log.
func (c *client) takeRotations() []Rotation {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Rotation, len(c.rotations))
	copy(out, c.rotations)
	return out
}
