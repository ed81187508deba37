package protocol

import (
	"context"
	"errors"
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

func TestBackoffRetryExhaustionWrapsTypedError(t *testing.T) {
	waits := 0 // Delay draws one jitter value per backoff
	b := Backoff{Base: time.Millisecond, Cap: time.Millisecond, Attempts: 3,
		Rand: func() float64 { waits++; return 0 }}
	boom := errors.New("boom")
	calls := 0
	err := b.Retry(context.Background(), func() (bool, time.Duration, error) {
		calls++
		return true, 0, boom
	})
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, should wrap the last failure", err)
	}
	if calls != 4 { // initial try + 3 retries
		t.Fatalf("fn ran %d times, want 4", calls)
	}
	if waits != 3 {
		t.Fatalf("backed off %d times, want 3 (no backoff after the final failure)", waits)
	}
}

func TestBackoffRetryStopsOnNonRetryable(t *testing.T) {
	b := Backoff{Rand: func() float64 { t.Fatal("must not back off for a terminal error"); return 0 }}
	terminal := errors.New("bad request")
	calls := 0
	err := b.Retry(context.Background(), func() (bool, time.Duration, error) {
		calls++
		return false, 0, terminal
	})
	if err != terminal {
		t.Fatalf("err = %v, want the terminal error verbatim", err)
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
}

func TestBackoffRetrySucceedsMidway(t *testing.T) {
	b := Backoff{Rand: func() float64 { return 0 }}
	calls := 0
	err := b.Retry(context.Background(), func() (bool, time.Duration, error) {
		calls++
		if calls < 3 {
			return true, 0, errors.New("transient")
		}
		return false, 0, nil
	})
	if err != nil {
		t.Fatalf("err = %v, want success", err)
	}
	if calls != 3 {
		t.Fatalf("fn ran %d times, want 3", calls)
	}
}

func TestBackoffRetryRespectsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	// The context dies as the first backoff starts; its hour-long delay
	// must not be slept out.
	b := Backoff{Base: time.Hour, Cap: time.Hour, Attempts: 10, Rand: func() float64 { cancel(); return 1 }}
	boom := errors.New("boom")
	err := b.Retry(ctx, func() (bool, time.Duration, error) { return true, 0, boom })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled wrapped", err)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, should keep the last failure", err)
	}
}

func TestRetryAfterDuration(t *testing.T) {
	if d := RetryAfterDuration(Response{RetryAfter: 7}); d != 7*time.Second {
		t.Fatalf("d = %v, want 7s", d)
	}
	if d := RetryAfterDuration(Response{}); d != 0 {
		t.Fatalf("d = %v, want 0 when absent", d)
	}
}
