package detect

import (
	"time"

	"funabuse/internal/account"
	"funabuse/internal/weblog"
)

// The account arm flags accounts younger than a week carrying four-digit
// request counts — far above any organic new account, far below a
// scripted one.
const (
	// accountMinAge: accounts whose observed lifetime is shorter than this
	// are thin-history. Per the account-history literature, age is the one
	// feature an attacker cannot fake without paying for it in time.
	accountMinAge = 7 * 24 * time.Hour
	// accountMinRequests: a thin-history account with at least this many
	// accrued requests is high-velocity — history too short for the volume
	// it is pushing.
	accountMinRequests = 2000
)

// AccountArm scores thin-history/high-velocity accounts: it feeds every
// request into an account store keyed by actor identity (accounts are
// created on first sight and age with the traffic), then flags sessions
// whose account has accrued more requests than its age can justify.
// It is the detection-side reading of the same lifecycle store the
// gate's account layer reads for tier decisions.
type AccountArm struct {
	store *account.Store
}

// NewAccountArm builds the arm over store; a nil store gets a fresh
// default-config store of its own.
func NewAccountArm(store *account.Store) *AccountArm {
	if store == nil {
		store = account.NewStore(account.Config{})
	}
	return &AccountArm{store: store}
}

// Name implements Arm.
func (a *AccountArm) Name() string { return "account history" }

// accountRequestKey resolves a request's account identity: the actor ID
// when the log carries one, else the session cookie. Anonymous requests
// have no account and are invisible to this arm.
func accountRequestKey(r *weblog.Request) string {
	if r.ActorID != "" {
		return r.ActorID
	}
	return r.Cookie
}

// ObserveRequest implements RequestObserver: every identified request
// ages and accrues on its account; sensitive-path requests count as
// bookings (the history future tier checks would read).
func (a *AccountArm) ObserveRequest(r weblog.Request) {
	key := accountRequestKey(&r)
	if key == "" {
		return
	}
	a.store.Observe(key, r.Time, SensitivePath(r.Path), false)
}

// Judge implements Arm: the session is flagged when its account is
// thin-history and high-velocity.
func (a *AccountArm) Judge(s *weblog.Session) Verdict {
	var key string
	for i := range s.Requests {
		if key = accountRequestKey(&s.Requests[i]); key != "" {
			break
		}
	}
	if key == "" {
		return Verdict{}
	}
	snap, ok := a.store.Snapshot(key)
	if !ok {
		return Verdict{}
	}
	if snap.Age() < accountMinAge && snap.Requests >= accountMinRequests {
		return Verdict{Flagged: true, Reason: "account:thin-history-high-velocity"}
	}
	return Verdict{}
}
