// Package app defines the boundary between clients (legitimate users and
// attackers, package attack / workload) and the defended application
// (package core): the client context every request carries, the API
// surfaces of the exploited features, and the rejection errors the defence
// stack returns.
//
// Attackers observe these errors exactly as real attackers observe HTTP
// responses, and adapt to them — a cap rejection triggers a party-size
// change, a block triggers a fingerprint rotation.
package app

import (
	"errors"

	"funabuse/internal/booking"
	"funabuse/internal/fingerprint"
	"funabuse/internal/geo"
	"funabuse/internal/proxy"
	"funabuse/internal/weblog"
)

// Defence rejections, distinguishable by clients just as HTTP status codes
// and challenge pages are.
var (
	// ErrBlocked means a block rule (fingerprint, IP or client key) fired.
	ErrBlocked = errors.New("app: request blocked")
	// ErrRateLimited means a rate limit denied the request.
	ErrRateLimited = errors.New("app: rate limited")
	// ErrChallengeFailed means the anti-bot challenge was not solved.
	ErrChallengeFailed = errors.New("app: challenge failed")
)

// ClientContext is what the application can observe about a request's
// origin: network address, presented fingerprint, the client's session
// cookie / profile identity, and the ground-truth actor labels used only by
// the evaluation harness.
type ClientContext struct {
	IP          proxy.IP
	Fingerprint fingerprint.Fingerprint
	// ClientKey is the application-visible identity (profile or API key a
	// request is attributed to). Bots may rotate it freely.
	ClientKey string
	// Cookie is the browser session cookie, controlled by the client. Real
	// browsers keep it; bots typically discard it, which fragments their
	// weblog sessions.
	Cookie string
	// Actor and ActorID are ground truth for evaluation; the defence stack
	// never reads them.
	Actor   weblog.Actor
	ActorID string
}

// ReservationAPI is the seat-selection feature surface.
type ReservationAPI interface {
	// RequestHold attempts a temporary seat hold.
	RequestHold(ctx ClientContext, req booking.HoldRequest) (*booking.Hold, error)
	// Confirm completes payment on a hold, issuing a ticket.
	Confirm(ctx ClientContext, id booking.HoldID) (booking.Ticket, error)
}

// SMSAPI is the SMS feature surface (OTP and boarding-pass delivery).
type SMSAPI interface {
	// RequestOTP triggers a one-time password to the number.
	RequestOTP(ctx ClientContext, to geo.MSISDN, login string) error
	// SendBoardingPass delivers the boarding pass for a record locator.
	SendBoardingPass(ctx ClientContext, locator string, to geo.MSISDN) error
}

// BrowseAPI is the plain content surface scrapers hammer.
type BrowseAPI interface {
	// Get fetches a content path, returning the HTTP-like status code.
	Get(ctx ClientContext, path string) (int, error)
}
