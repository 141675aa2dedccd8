package mitigate

import (
	"funabuse/internal/booking"
)

// Honeypot implements the decoy-environment mitigation: clients judged
// abusive are transparently routed to a shadow reservation system that
// mirrors the real flights but whose holds never touch real inventory. The
// attacker keeps "succeeding", so it has no signal to rotate identities,
// while real stock stays sellable — the economics Section V describes.
type Honeypot struct {
	real  *booking.System
	decoy *booking.System

	redirected map[string]bool
	decoyHolds int
}

// NewHoneypot wraps the real system with a decoy. The decoy must be
// pre-seeded with the real system's flights.
func NewHoneypot(real, decoy *booking.System) *Honeypot {
	return &Honeypot{
		real:       real,
		decoy:      decoy,
		redirected: make(map[string]bool),
	}
}

// Redirect marks a client key for decoy routing.
func (h *Honeypot) Redirect(clientKey string) {
	h.redirected[clientKey] = true
}

// IsRedirected reports whether a client key routes to the decoy.
func (h *Honeypot) IsRedirected(clientKey string) bool {
	return h.redirected[clientKey]
}

// RequestHold routes the request to the decoy when the client key is
// marked, otherwise to the real system. The response is indistinguishable
// to the caller in both cases.
func (h *Honeypot) RequestHold(clientKey string, req booking.HoldRequest) (*booking.Hold, error) {
	if h.redirected[clientKey] {
		hold, err := h.decoy.RequestHold(req)
		if err == nil {
			h.decoyHolds++
		}
		return hold, err
	}
	return h.real.RequestHold(req)
}

// DecoyHolds returns how many holds were absorbed by the decoy — inventory
// the attack believed it blocked but which stayed sellable.
func (h *Honeypot) DecoyHolds() int { return h.decoyHolds }

// Decoy returns the shadow system.
func (h *Honeypot) Decoy() *booking.System { return h.decoy }
