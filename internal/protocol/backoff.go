package protocol

import (
	"errors"
	"math/rand"
	"time"
)

// ErrRetriesExhausted marks a retryable operation that failed every
// allowed attempt. Callers unwrap it with errors.Is; the last underlying
// failure is wrapped alongside it.
var ErrRetriesExhausted = errors.New("protocol: retries exhausted")

// Backoff is the gateway proxy path's retry policy: capped exponential
// growth with full jitter, and a server-sent Retry-After hint always
// honored as the floor for that attempt (an overloaded server knows its
// own drain rate better than our curve does). The gateway runs its own
// retry loop around MaxAttempts and Delay.
//
// The zero value is usable and selects the defaults below. Backoff is a
// value type: copies are independent, and a Backoff without a custom
// Rand hook is safe for concurrent use.
type Backoff struct {
	// Base is the first attempt's delay ceiling (default 50ms). Attempt
	// k's ceiling is Base<<k, capped at Cap.
	Base time.Duration
	// Cap bounds any single delay (default 2s).
	Cap time.Duration
	// Attempts is how many retries are allowed after the initial try
	// (default 4). Retry loops surface ErrRetriesExhausted past it.
	Attempts int
	// Rand overrides the jitter source with a function returning values
	// in [0, 1) — injectable for deterministic tests. Nil uses the
	// global math/rand source (which is safe for concurrent use).
	Rand func() float64
}

// Backoff defaults.
const (
	DefaultBackoffBase     = 50 * time.Millisecond
	DefaultBackoffCap      = 2 * time.Second
	DefaultBackoffAttempts = 4
)

func (b Backoff) base() time.Duration {
	if b.Base > 0 {
		return b.Base
	}
	return DefaultBackoffBase
}

func (b Backoff) cap() time.Duration {
	if b.Cap > 0 {
		return b.Cap
	}
	return DefaultBackoffCap
}

// MaxAttempts resolves the configured retry budget.
func (b Backoff) MaxAttempts() int {
	if b.Attempts > 0 {
		return b.Attempts
	}
	return DefaultBackoffAttempts
}

func (b Backoff) random() float64 {
	if b.Rand != nil {
		return b.Rand()
	}
	return rand.Float64()
}

// Delay computes attempt's wait (attempt counts from 0): full jitter
// over the capped exponential ceiling, with retryAfter — the server's
// Retry-After hint, zero when absent — as the floor. Full jitter
// (delay = random in [0, ceiling]) is what prevents a thundering herd:
// clients knocked back by the same event spread out instead of
// returning in lockstep.
func (b Backoff) Delay(attempt int, retryAfter time.Duration) time.Duration {
	ceiling := b.cap()
	if shift := b.base() << uint(attempt); shift > 0 && shift < ceiling {
		ceiling = shift
	}
	d := time.Duration(b.random() * float64(ceiling))
	if retryAfter > 0 && d < retryAfter {
		d = retryAfter
	}
	return d
}
