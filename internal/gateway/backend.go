package gateway

import (
	"sync"
	"sync/atomic"
	"time"
)

// BreakerState is a backend's circuit-breaker state.
type BreakerState int32

const (
	// BreakerClosed: the backend is taking traffic normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the backend failed FailThreshold consecutive times
	// and receives no client traffic until its cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: the cooldown elapsed; only the health prober
	// talks to the backend. SuccessThreshold consecutive probe
	// successes close the breaker — client traffic never races the
	// recovery check, so a just-recovered backend is not stampeded.
	BreakerHalfOpen
)

// String renders the state for stats and logs.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// backend is one dbtouch-serve instance behind the gateway: its address
// plus the breaker and draining state the router consults.
type backend struct {
	base string // server root, e.g. "http://127.0.0.1:8081"

	mu          sync.Mutex
	state       BreakerState
	draining    bool
	consecFails int       // consecutive failures while closed
	halfOpenOKs int       // consecutive probe successes while half-open
	openedAt    time.Time // when the breaker last tripped

	// Monotonic counters for /gatewayz.
	probes     atomic.Int64
	probeFails atomic.Int64
	trips      atomic.Int64
}

// BackendStats is one backend's row in the gateway stats snapshot.
type BackendStats struct {
	Addr        string `json:"addr"`
	State       string `json:"state"`
	Draining    bool   `json:"draining,omitempty"`
	Ready       bool   `json:"ready"`
	ConsecFails int    `json:"consecFails,omitempty"`
	Probes      int64  `json:"probes"`
	ProbeFails  int64  `json:"probeFails,omitempty"`
	Trips       int64  `json:"trips,omitempty"`
}

// ready reports whether the router may place traffic on the backend:
// breaker closed and not draining.
func (b *backend) ready() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == BreakerClosed && !b.draining
}

// isDraining reports whether the backend announced it is leaving.
func (b *backend) isDraining() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.draining
}

// breakerState returns the current state and when it was entered (for
// Open, the trip time that starts the cooldown clock).
func (b *backend) breakerState() (BreakerState, time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.openedAt
}

// toHalfOpen moves an open breaker to half-open once its cooldown
// elapsed; the prober calls this before probing a tripped backend.
func (b *backend) toHalfOpen() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen {
		b.state = BreakerHalfOpen
		b.halfOpenOKs = 0
	}
}

// noteSuccess records a successful interaction. Request-path successes
// only reset the failure streak; closing a tripped breaker is the
// prober's call alone (fromProbe), needing successThreshold consecutive
// probe successes — the flap damping that keeps a backend bouncing
// between alive and dead from being readmitted on one good reply.
// Reports whether the breaker closed on this call.
func (b *backend) noteSuccess(fromProbe bool, successThreshold int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecFails = 0
	if b.state == BreakerHalfOpen && fromProbe {
		b.halfOpenOKs++
		if b.halfOpenOKs >= successThreshold {
			b.state = BreakerClosed
			return true
		}
	}
	return false
}

// noteFailure records a failed interaction (probe or request path).
// failThreshold consecutive failures trip a closed breaker; any failure
// re-trips a half-open one, restarting the cooldown. Reports whether
// the breaker tripped on this call.
func (b *backend) noteFailure(failThreshold int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.consecFails++
		if b.consecFails >= failThreshold {
			b.state = BreakerOpen
			b.openedAt = time.Now()
			b.trips.Add(1)
			return true
		}
	case BreakerHalfOpen:
		b.state = BreakerOpen
		b.openedAt = time.Now()
		b.halfOpenOKs = 0
		b.trips.Add(1)
		return true
	}
	return false
}

// setDraining flips the draining flag; returns true when this call is
// the transition into draining (the moment to migrate sessions away).
func (b *backend) setDraining(v bool) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	was := b.draining
	b.draining = v
	return v && !was
}

// snapshot renders the backend for /gatewayz.
func (b *backend) snapshot() BackendStats {
	b.mu.Lock()
	state, draining, fails := b.state, b.draining, b.consecFails
	b.mu.Unlock()
	return BackendStats{
		Addr:        b.base,
		State:       state.String(),
		Draining:    draining,
		Ready:       state == BreakerClosed && !draining,
		ConsecFails: fails,
		Probes:      b.probes.Load(),
		ProbeFails:  b.probeFails.Load(),
		Trips:       b.trips.Load(),
	}
}
