package mitigate

import (
	"funabuse/internal/simrand"
)

// CaptchaGate models the "increased layers of anti-bot detection"
// mitigation. The paper is explicit that CAPTCHAs do not stop a funded
// attacker — solving services exist — but they attach a unit cost and a
// failure rate to every automated request, which is exactly what the
// economics experiments need.
type CaptchaGate struct {
	rng *simrand.RNG
	// humanPass is the probability a human solves the challenge.
	humanPass float64
	// solverPass is the probability a CAPTCHA-solving service succeeds.
	solverPass float64
	// solveCostUSD is the price per solving attempt on the grey market.
	solveCostUSD float64

	botSpendUSD float64
	friction    int // humans abandoned due to failed challenge
}

// CaptchaOption configures the gate.
type CaptchaOption func(*CaptchaGate)

// WithSolveCost sets the grey-market per-solve price.
func WithSolveCost(usd float64) CaptchaOption {
	return func(g *CaptchaGate) { g.solveCostUSD = usd }
}

// DefaultSolveCostUSD reflects public CAPTCHA-farm price lists (fractions
// of a cent per solve).
const DefaultSolveCostUSD = 0.002

// NewCaptchaGate returns a gate with the default pass rates.
func NewCaptchaGate(rng *simrand.RNG, opts ...CaptchaOption) *CaptchaGate {
	g := &CaptchaGate{
		rng:          rng,
		humanPass:    0.97,
		solverPass:   0.92,
		solveCostUSD: DefaultSolveCostUSD,
	}
	for _, opt := range opts {
		opt(g)
	}
	return g
}

// ChallengeHuman runs the gate for a human client and reports pass/fail.
func (g *CaptchaGate) ChallengeHuman() bool {
	if g.rng.Bool(g.humanPass) {
		return true
	}
	g.friction++
	return false
}

// ChallengeBot runs the gate for an automated client using a solving
// service: the attacker pays the solve cost whether or not the solve
// succeeds.
func (g *CaptchaGate) ChallengeBot() bool {
	g.botSpendUSD += g.solveCostUSD
	return g.rng.Bool(g.solverPass)
}

// BotSpendUSD returns the attacker's cumulative solver spend.
func (g *CaptchaGate) BotSpendUSD() float64 { return g.botSpendUSD }

// HumanFriction returns how many legitimate interactions the gate broke —
// the usability cost Section V weighs against the security benefit.
func (g *CaptchaGate) HumanFriction() int { return g.friction }
