package protocol

import (
	"context"
	"errors"
	"time"
)

// TookFastPath reports whether DecodeRequest reads data by hand (the
// external tests pin the shapes served all day to the walk).
func TookFastPath(data []byte) bool {
	_, ok := readRequest(string(data))
	return ok
}

// DecodeColumns is the /rpc handler's decode: hand-parsed rows stay a
// column-wise batch (Request.Batch) instead of being boxed into Rows.
func DecodeColumns(data []byte) (Request, error) { return decodeRequest(data) }

// wait sleeps for attempt's delay, honoring ctx cancellation. Reports
// false when the context died first.
func (b Backoff) wait(ctx context.Context, attempt int, retryAfter time.Duration) bool {
	d := b.Delay(attempt, retryAfter)
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Retry runs fn up to 1+MaxAttempts times. fn reports whether its
// failure is retryable and an optional server-hinted minimum delay.
// A nil error stops immediately; a non-retryable error surfaces as-is;
// running out of attempts wraps the last error with ErrRetriesExhausted.
// No non-test code retries this way (the gateway runs its own loop);
// the backoff tests keep it until they are retired.
func (b Backoff) Retry(ctx context.Context, fn func() (retryable bool, retryAfter time.Duration, err error)) error {
	var last error
	for attempt := 0; ; attempt++ {
		retryable, retryAfter, err := fn()
		if err == nil {
			return nil
		}
		if !retryable {
			return err
		}
		last = err
		if attempt >= b.MaxAttempts() {
			return errors.Join(ErrRetriesExhausted, last)
		}
		if !b.wait(ctx, attempt, retryAfter) {
			return errors.Join(ctx.Err(), last)
		}
	}
}

// RetryAfterDuration renders a response's Retry-After hint (seconds) as
// a duration, zero when the response carried none.
func RetryAfterDuration(resp Response) time.Duration {
	if resp.RetryAfter > 0 {
		return time.Duration(resp.RetryAfter) * time.Second
	}
	return 0
}
