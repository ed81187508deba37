package protocol

import (
	"testing"
	"time"
)

func TestBackoffDelayCappedExponential(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Cap: 80 * time.Millisecond, Rand: func() float64 { return 0.999999 }}
	// Jitter pinned at ~1.0: Delay approaches the ceiling itself.
	wantCeilings := []time.Duration{
		10 * time.Millisecond, // attempt 0: base
		20 * time.Millisecond, // attempt 1: base<<1
		40 * time.Millisecond,
		80 * time.Millisecond, // hits cap
		80 * time.Millisecond, // stays capped
	}
	for attempt, ceiling := range wantCeilings {
		d := b.Delay(attempt, 0)
		if d > ceiling || d < ceiling-time.Millisecond {
			t.Fatalf("attempt %d: delay %v, want ~%v", attempt, d, ceiling)
		}
	}
}

func TestBackoffDelayFullJitter(t *testing.T) {
	// Full jitter means delay = r * ceiling for r in [0,1): r=0 gives a
	// zero delay — clients knocked back together must be able to spread
	// across the whole window, including its bottom.
	b := Backoff{Base: 100 * time.Millisecond, Cap: time.Second, Rand: func() float64 { return 0 }}
	if d := b.Delay(0, 0); d != 0 {
		t.Fatalf("zero jitter: delay %v, want 0", d)
	}
	b.Rand = func() float64 { return 0.5 }
	if d := b.Delay(0, 0); d != 50*time.Millisecond {
		t.Fatalf("half jitter: delay %v, want 50ms", d)
	}
}

func TestBackoffDelayHonorsRetryAfterFloor(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Cap: 20 * time.Millisecond, Rand: func() float64 { return 0 }}
	// The server's hint is a floor, never shaved by jitter: an
	// overloaded server knows its drain rate better than our curve.
	if d := b.Delay(0, 3*time.Second); d != 3*time.Second {
		t.Fatalf("delay %v, want the 3s Retry-After floor", d)
	}
	// A hint below the jittered delay changes nothing.
	b.Rand = func() float64 { return 0.999999 }
	if d := b.Delay(4, time.Millisecond); d < 19*time.Millisecond {
		t.Fatalf("delay %v, want ~cap despite tiny hint", d)
	}
}

func TestBackoffZeroValueDefaults(t *testing.T) {
	var b Backoff
	if got := b.MaxAttempts(); got != DefaultBackoffAttempts {
		t.Fatalf("MaxAttempts = %d, want %d", got, DefaultBackoffAttempts)
	}
	b.Rand = func() float64 { return 0.999999 }
	if d := b.Delay(0, 0); d > DefaultBackoffBase || d < DefaultBackoffBase-time.Millisecond {
		t.Fatalf("attempt 0 delay %v, want ~%v", d, DefaultBackoffBase)
	}
	if d := b.Delay(20, 0); d > DefaultBackoffCap || d < DefaultBackoffCap-time.Millisecond {
		t.Fatalf("deep attempt delay %v, want ~%v", d, DefaultBackoffCap)
	}
}
